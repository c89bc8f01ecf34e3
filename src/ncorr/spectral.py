"""Eigenspace clustering and density matrix truncation.

A truncated component of a state keeps one eigenvalue's eigenspace and scales
its projector by the eigenvalue itself: eta * sum_k |v_k><v_k| over the
eigenspace basis. The component's reduced spectra on each side drive the
truncation measure; for states with a product eigenbasis every such reduced
eigenvalue is an integer multiple of eta. The reduced matrices are summed
from slices of the reshaped eigenvectors, so the d x d projector is never
formed and a decomposition holds O(d^2) numbers, not O(d^3).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import MalformedInputError
from .linalg import DensityMatrix, _as_dims


@dataclass(frozen=True, eq=False)
class EigenCluster:
    """One distinct eigenvalue with its eigenspace basis (columns of vectors)."""

    eta: float
    multiplicity: int
    vectors: np.ndarray


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Distinct nonzero eigenvalues of a state, ascending by eta."""

    clusters: tuple[EigenCluster, ...]
    dropped: int  # eigenvalues discarded as numerically zero


@dataclass(frozen=True, eq=False)
class TruncatedComponent:
    """Nonzero reduced spectra of one eta-scaled eigenspace projector.

    With P = eta * V V^dag over the eigenspace basis V, spectrum_a and
    spectrum_b hold the eigenvalues of tr_B(P) and tr_A(P) above the rank
    cutoff, descending. trace(P) equals eta * multiplicity, so each spectrum
    sums to that quota. P itself is not kept.
    """

    eta: float
    multiplicity: int
    spectrum_a: np.ndarray
    spectrum_b: np.ndarray


def cluster_spectrum(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralDecomposition:
    """Group the eigenvalues of rho into distinct-value clusters.

    rho.eig's eigenvalues ascend, and each cluster is a contiguous run of them
    that splits where a consecutive gap exceeds tol.deg; it is represented by
    the mean of its members. Clusters whose mean is at or below tol.zero are
    dropped.
    """
    if not isinstance(rho, DensityMatrix):
        raise MalformedInputError("cluster_spectrum expects a DensityMatrix")
    values, vectors = rho.eig
    bounds = [0, *(np.flatnonzero(np.diff(values) > tol.deg) + 1).tolist(), len(values)]
    clusters = []
    for lo, hi in zip(bounds, bounds[1:]):
        eta = float(values[lo:hi].mean())
        if eta > tol.zero:
            # A column-major copy: the bits of truncated_component's products depend on the layout.
            clusters.append(EigenCluster(eta=eta, multiplicity=hi - lo, vectors=vectors[:, lo:hi].copy(order="F")))
    dropped = len(values) - sum(c.multiplicity for c in clusters)
    return SpectralDecomposition(clusters=tuple(clusters), dropped=dropped)


def truncated_component(
    cluster: EigenCluster, dims, tol: Tolerances = DEFAULT_TOLERANCES
) -> TruncatedComponent:
    """Nonzero reduced spectra of eta * (eigenspace projector).

    With t = vectors reshaped to (dA, dB, m), tr_B(eta V V^dag) is the sum over
    b of eta * t[:, b] t[:, b]^dag and tr_A the sum over a of eta * t[a] t[a]^dag:
    one dA x dA or dB x dB product per slice, never a d x d matrix.
    """
    dims = _as_dims(dims)
    v = cluster.vectors
    if v.shape[0] != dims.total:
        raise MalformedInputError(f"eigenvector length {v.shape[0]} does not match dims {dims.dA}x{dims.dB}")
    t = v.reshape(dims.dA, dims.dB, cluster.multiplicity)
    spectra = []
    for s in (t.transpose(1, 0, 2), t):
        # accumulate adds the slices in order, as the dense partial trace did;
        # sum(axis=0) would add a stack of 1 x 1 slices pairwise instead.
        reduced = np.add.accumulate(cluster.eta * (s @ s.conj().transpose(0, 2, 1)))[-1]
        w = np.linalg.eigh(reduced)[0]
        spectra.append(w[w > tol.rank][::-1])  # eigh's values ascend
    return TruncatedComponent(
        eta=cluster.eta,
        multiplicity=cluster.multiplicity,
        spectrum_a=spectra[0],
        spectrum_b=spectra[1],
    )


def decompose(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[TruncatedComponent, ...]:
    """All truncated components of rho, ascending by eta."""
    decomposition = cluster_spectrum(rho, tol)
    return tuple(truncated_component(c, rho.dims, tol) for c in decomposition.clusters)
