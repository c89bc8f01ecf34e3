"""Numerical tolerance configuration shared across the library."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DomainError


@dataclass(frozen=True)
class Tolerances:
    """Named numerical thresholds, each finite and >= 0; every check in the library reads one of these.

    herm      max |m - m^dag| entry accepted as Hermitian
    trace     |tr(rho) - 1| accepted as unit trace; |norm - 1| of a vector given to schmidt_decomposition
    psd       eigenvalues >= -psd accepted as positive semidefinite
    recon     read by no check; kept because every report, the golden files included, prints it
    orth      orthonormality / overlap slack for basis vectors
    deg       eigenvalue gap at or below which values share one eigenspace
    zero      cluster representative at or below this is treated as zero
    rank      reduced-spectrum entries above this count toward the rank
    tie       rounding tie declared when |remainder - y/2| <= tie * y
    offdiag   off-diagonal / block-residual Frobenius threshold in detection
    comm      commutator Frobenius-norm threshold in detection
    measure   measure value above this witnesses nonclassical correlation
    """

    herm: float = 1e-10
    trace: float = 1e-8
    psd: float = 1e-10
    recon: float = 1e-9
    orth: float = 1e-10
    deg: float = 1e-9
    zero: float = 1e-10
    rank: float = 1e-10
    tie: float = 1e-9
    offdiag: float = 1e-8
    comm: float = 1e-8
    measure: float = 1e-7

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not (math.isfinite(value) and value >= 0):
                raise DomainError(f"tolerance {name} must be finite and >= 0, got {value}")

    def as_dict(self) -> dict[str, float]:
        """Field-name to value mapping, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


DEFAULT_TOLERANCES = Tolerances()
