"""Eigenspace clustering and density matrix truncation.

A truncated component of a state keeps one eigenvalue's eigenspace and scales
its projector by the eigenvalue itself: eta * sum_k |v_k><v_k| over the
eigenspace basis. The component's reduced spectra on each side drive the
truncation measure; for states with a product eigenbasis every such reduced
eigenvalue is an integer multiple of eta. Each side's reduced matrix is one
product of the reshaped eigenvectors with their adjoint, so the d x d
projector is never formed and a decomposition holds O(d^2) numbers, not
O(d^3). _components stacks the eigenspaces of each multiplicity and makes
that product, and one eigvalsh, per side and stack of at most _STACK_ENTRIES
eigenvector entries.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import MalformedInputError
from .linalg import DensityMatrix, _as_dims

_STACK_ENTRIES = 1 << 13  # eigenvector entries per stacked product: 128 KiB, so stacks stay O(d^2)


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
        eta = float(values[lo:hi].sum()) / (hi - lo)  # numpy's mean: the sum over the count
        if eta > tol.zero:
            clusters.append(EigenCluster(eta=eta, multiplicity=hi - lo, vectors=vectors[:, lo:hi]))
    dropped = len(values) - sum(c.multiplicity for c in clusters)
    return SpectralDecomposition(clusters=tuple(clusters), dropped=dropped)


def _components(clusters, dims, tol: Tolerances) -> list[TruncatedComponent]:
    """Truncated components of clusters of any multiplicities, in their order.

    truncated_component's products and eigvalsh, on stacks of k clusters of one multiplicity m: t is (k, dA, dB, m).
    """
    comps = [None] * len(clusters)
    for m in dict.fromkeys(c.multiplicity for c in clusters):
        group = [i for i, c in enumerate(clusters) if c.multiplicity == m]
        step = max(1, _STACK_ENTRIES // (dims.total * m))
        for lo in range(0, len(group), step):
            where = group[lo : lo + step]
            chunk = [clusters[i] for i in where]
            eta = np.array([c.eta for c in chunk])[:, None, None]
            t = np.stack([c.vectors for c in chunk]).reshape(len(chunk), dims.dA, dims.dB, m)
            stacks = (t.reshape(len(chunk), dims.dA, -1), t.transpose(0, 2, 1, 3).reshape(len(chunk), dims.dB, -1))
            # eigvalsh's values ascend; each row is reversed, so its kept values descend.
            wa, wb = (np.linalg.eigvalsh(eta * (s @ s.conj().transpose(0, 2, 1)))[:, ::-1] for s in stacks)
            for i, c, a, b in zip(where, chunk, wa, wb):
                comps[i] = TruncatedComponent(c.eta, m, a[a > tol.rank], b[b > tol.rank])
    return comps


def truncated_component(
    cluster: EigenCluster, dims, tol: Tolerances = DEFAULT_TOLERANCES
) -> TruncatedComponent:
    """Nonzero reduced spectra of eta * (eigenspace projector).

    With t = vectors reshaped to (dA, dB, m), tr_B(eta V V^dag) is eta * T T^dag
    for T = t.reshape(dA, dB * m), and tr_A the same with the dA and dB axes
    swapped: one dA x dA or dB x dB product per side, never a d x d matrix. This
    is decompose's stacked computation on a stack of one, bit for bit.
    """
    dims = _as_dims(dims)
    v = cluster.vectors
    if v.shape[0] != dims.total:
        raise MalformedInputError(f"eigenvector length {v.shape[0]} does not match dims {dims.dA}x{dims.dB}")
    return _components([cluster], dims, tol)[0]


def decompose(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[TruncatedComponent, ...]:
    """All truncated components of rho, ascending by eta, each multiplicity's computed in stacks."""
    return tuple(_components(cluster_spectrum(rho, tol).clusters, rho.dims, tol))
