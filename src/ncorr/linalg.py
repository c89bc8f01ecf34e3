"""Bipartite linear algebra primitives.

Composite indices are subsystem-A major throughout: basis vector |a>|b> of a
dA x dB system sits at position a * dB + b, which is exactly the ordering
produced by numpy.kron.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import MalformedInputError


@dataclass(frozen=True)
class BipartiteDims:
    """Subsystem dimensions (dA, dB) of a bipartite system."""

    dA: int
    dB: int

    def __post_init__(self):
        if not all(isinstance(d, numbers.Integral) and not isinstance(d, bool) for d in (self.dA, self.dB)):
            raise MalformedInputError(f"subsystem dimensions must be integers, got {(self.dA, self.dB)}")
        if self.dA < 1 or self.dB < 1:
            raise MalformedInputError(f"subsystem dimensions must be >= 1, got {(self.dA, self.dB)}")

    @property
    def total(self) -> int:
        return self.dA * self.dB


def _as_dims(dims) -> BipartiteDims:
    return dims if isinstance(dims, BipartiteDims) else BipartiteDims(*dims)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class EigenSystem(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    values: np.ndarray
    vectors: np.ndarray  # column k pairs with values[k]


def _eigensystem(mat: np.ndarray) -> EigenSystem:
    return EigenSystem(*map(_read_only, np.linalg.eigh(mat)))


def _check_hermitian(mat: np.ndarray, herm_tol: float) -> None:
    """Reject a matrix that is not square, has a NaN or infinite entry, or is not Hermitian to within herm_tol."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise MalformedInputError(f"expected a square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():  # before the subtraction, where inf - inf would warn
        raise MalformedInputError("matrix has non-finite (NaN or infinite) entries")
    herm_err = np.abs(mat - mat.conj().T).max()
    if herm_err > herm_tol:
        raise MalformedInputError(f"matrix is not Hermitian: max |m - m^dag| = {herm_err:.3e}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated bipartite density matrix: finite, Hermitian, unit trace, positive semidefinite.

    mat is a read-only complex128 copy of the input, so the per-state results
    cached on it cannot go stale: eig of mat; reduced, {"A": ..., "B": ...}
    of partial_trace(mat, dims, side), and reduced_eig, their eigensystems;
    ppt_min_eig, the smallest eigenvalue of partial_transpose(mat, dims, "B");
    and _measure_reports, the MeasureReport truncation_measure built for each
    Tolerances. Each is computed on first use and read as it is, with no
    second Hermiticity check; the arrays are read-only. Validation needs only a
    Cholesky factor, or eigvalsh where there is none, so it computes no eigenvectors.
    """

    mat: np.ndarray
    dims: BipartiteDims
    _measure_reports: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        tol = DEFAULT_TOLERANCES
        mat = _read_only(np.array(self.mat, dtype=np.complex128))
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", _as_dims(self.dims))
        d = self.dims.total
        if mat.ndim != 2 or mat.shape != (d, d):
            raise MalformedInputError(
                f"matrix shape {mat.shape} does not match dims {self.dims.dA}x{self.dims.dB} (need {d}x{d})"
            )
        _check_hermitian(mat, tol.herm)
        tr_err = abs(mat.trace() - 1.0)
        if tr_err > tol.trace:
            raise MalformedInputError(f"trace differs from 1 by {tr_err:.3e}")
        # A Cholesky factor of mat + (psd - 1e-11) I proves every eigenvalue >= -psd at a
        # fraction of eigvalsh's cost; the 1e-11 covers the factorization's rounding error.
        # Where there is no factor, eigvalsh decides and words the rejection.
        shifted = mat.copy()
        shifted.flat[:: d + 1] += tol.psd - 1e-11
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            min_eig = float(np.linalg.eigvalsh(mat)[0])
            if min_eig < -tol.psd:
                raise MalformedInputError(f"matrix is not positive semidefinite: min eigenvalue {min_eig:.3e}")

    @cached_property
    def eig(self) -> EigenSystem:
        return _eigensystem(self.mat)

    @cached_property
    def reduced(self) -> dict[str, np.ndarray]:
        return {side: _read_only(partial_trace(self.mat, self.dims, side)) for side in "AB"}

    @cached_property
    def reduced_eig(self) -> dict[str, EigenSystem]:
        return {side: _eigensystem(r) for side, r in self.reduced.items()}

    @cached_property
    def ppt_min_eig(self) -> float:
        return float(np.linalg.eigvalsh(partial_transpose(self.mat, self.dims, "B"))[0])


def _blocks(mat: np.ndarray, dims) -> tuple[BipartiteDims, np.ndarray]:
    """dims, and mat viewed as r[a, b, a', b'] = mat[a * dB + b, a' * dB + b']."""
    dims = _as_dims(dims)
    mat = np.asarray(mat)
    if mat.shape != (dims.total, dims.total):
        raise MalformedInputError(f"matrix shape {mat.shape} does not match dims {dims.dA}x{dims.dB}")
    return dims, mat.reshape(dims.dA, dims.dB, dims.dA, dims.dB)


def partial_trace(mat: np.ndarray, dims, keep: str = "A") -> np.ndarray:
    """Trace out one subsystem; keep='A' returns the dA x dA matrix tr_B(mat)."""
    dims, r = _blocks(mat, dims)
    if keep == "A":
        return np.einsum("abcb->ac", r)
    if keep == "B":
        return np.einsum("abad->bd", r)
    raise MalformedInputError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_transpose(mat: np.ndarray, dims, side: str = "B") -> np.ndarray:
    """Transpose the indices of one subsystem only."""
    dims, r = _blocks(mat, dims)
    if side == "B":
        r = r.transpose(0, 3, 2, 1)
    elif side == "A":
        r = r.transpose(2, 1, 0, 3)
    else:
        raise MalformedInputError(f"side must be 'A' or 'B', got {side!r}")
    return r.reshape(dims.total, dims.total)


def projector(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


def tensor_product(state_1: DensityMatrix, state_2: DensityMatrix) -> DensityMatrix:
    """Tensor product of two bipartite states as one bipartite state.

    The first factor's subsystems (A, B) and the second's (C, D) are combined
    so the result is bipartite across AC | BD, with A-major index order inside
    each combined subsystem.
    """
    a, b = state_1.dims.dA, state_1.dims.dB
    c, d = state_2.dims.dA, state_2.dims.dB
    big = np.kron(state_1.mat, state_2.mat)
    big = big.reshape(a, b, c, d, a, b, c, d).transpose(0, 2, 1, 3, 4, 6, 5, 7)
    dims = BipartiteDims(a * c, b * d)
    return DensityMatrix(big.reshape(dims.total, dims.total), dims)
