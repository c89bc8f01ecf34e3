"""Correlation measures built on density matrix truncations.

The truncation measure compares each truncated component's reduced spectrum
against its rounding to integer multiples of the component eigenvalue eta.
States with a product eigenbasis score zero exactly; the measure is computable
in polynomial time. The partition measure instead searches every grouping of
the global spectrum into equal-size sets whose sums mimic a reduced spectrum,
which is exponential in the total dimension and therefore guarded. The search
is exact but vectorized: numpy scores blocks of groupings from a table of
per-group entropy terms, and math.fsum rescores the few near the minimum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import CapabilityError, DomainError, MalformedInputError
from .linalg import DensityMatrix, _as_dims, _read_only, hermitian_eig
from .spectral import TruncatedComponent, decompose

_QUOTA_SLACK = 1e-9  # relative headroom over the quota before x is out of domain
_BLOCK = 1 << 15  # group terms per block of the partition search: ~1 MB of work arrays


def nearest_integer_multiple(x: float, y: float, tie_tol: float = DEFAULT_TOLERANCES.tie) -> float:
    """The multiple of y nearest to x, rounding half-way cases down; 0 when y = 0.

    A tie is declared whenever the remainder of x modulo y lies within
    tie_tol * y of y/2, so half-way points reached through floating-point
    noise still round down deterministically.
    """
    if x < 0 or y < 0:
        raise DomainError(f"arguments must be nonnegative, got x={x}, y={y}")
    if y == 0:
        return 0.0
    q = math.floor(x / y)
    rem = x - q * y
    if abs(rem - y / 2) <= tie_tol * y:
        return q * y
    if rem <= y - rem:
        return q * y
    return (q + 1) * y


def surprisal_term(x: float, y: float, quota: float) -> float:
    """Contribution -|x - y| * log2(x / quota) of one spectrum entry.

    x must lie in (0, quota]; the result is nonnegative because the log factor
    is then nonpositive. Tiny positive excursions from rounding are clamped.
    """
    if quota <= 0:
        raise DomainError(f"quota must be positive, got {quota}")
    if x <= 0:
        raise DomainError(f"x must be positive, got {x}")
    if x > quota * (1 + _QUOTA_SLACK):
        raise DomainError(f"x={x} exceeds quota={quota}")
    if y < 0:
        raise DomainError(f"y must be nonnegative, got {y}")
    return max(0.0, -abs(x - y) * math.log2(x / quota))


def _group_discrepancy(xs: Sequence[float], ys: Sequence[float], quota: float) -> float:
    return math.fsum(surprisal_term(x, y, quota) for x, y in zip(xs, ys))


def truncation_measure_side(
    components: Sequence[TruncatedComponent], side: str, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[float, tuple[float, ...]]:
    """One-sided truncation measure and its per-component contributions.

    For each component the reduced spectrum is compared against its entrywise
    rounding to integer multiples of eta, with quota eta * multiplicity.
    """
    if side not in ("A", "B"):
        raise DomainError(f"side must be 'A' or 'B', got {side!r}")
    contribs = []
    for comp in components:
        spectrum = comp.spectrum_a if side == "A" else comp.spectrum_b
        quota = comp.eta * comp.multiplicity
        predicted = [nearest_integer_multiple(lam, comp.eta, tol.tie) for lam in spectrum]
        contribs.append(_group_discrepancy(spectrum, predicted, quota))
    return math.fsum(contribs), tuple(contribs)


class ComponentContribution(NamedTuple):
    eta: float
    multiplicity: int
    side_a: float
    side_b: float


@dataclass(frozen=True)
class MeasureReport:
    """Measure values for one state."""

    value: float
    side_a: float
    side_b: float
    per_component: tuple[ComponentContribution, ...]
    entropy_a: float
    entropy_b: float
    ppt_min_eig: float


def truncation_measure(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> MeasureReport:
    """Truncation measure of a state: mean of the two one-sided values.

    The report is built once per state and tolerances and kept on rho, so a
    second call with equal tolerances returns the same object.
    """
    report = rho._measure_reports.get(tol)
    if report is None:
        components = decompose(rho, tol)
        total_a, contribs_a = truncation_measure_side(components, "A", tol)
        total_b, contribs_b = truncation_measure_side(components, "B", tol)
        report = rho._measure_reports[tol] = MeasureReport(
            value=(total_a + total_b) / 2,
            side_a=total_a,
            side_b=total_b,
            per_component=tuple(
                ComponentContribution(c.eta, c.multiplicity, ca, cb)
                for c, ca, cb in zip(components, contribs_a, contribs_b)
            ),
            entropy_a=_entropy(rho.reduced_eig["A"].values, tol),
            entropy_b=_entropy(rho.reduced_eig["B"].values, tol),
            ppt_min_eig=ppt_min_eigenvalue(rho),
        )
    return report


def _xlog2x(v: float) -> float:
    return v * math.log2(v) if v > 0 else 0.0


@lru_cache(maxsize=None)
def _subsets(n: int, g: int) -> np.ndarray:
    """Every g-subset of range(n) as an ascending row. Row r is the subset of
    colex rank r, where c_0 < ... < c_(g-1) has rank sum_i C(c_i, i + 1)."""
    rows = sorted(combinations(range(n), g), key=lambda c: c[::-1])
    return _read_only(np.array(rows, dtype=np.intp).reshape(len(rows), g))


@lru_cache(maxsize=None)
def _split(n: int, g: int) -> tuple[np.ndarray, np.ndarray]:
    """Every unordered grouping of range(n) into groups of g, once each, as
    maps[a, rows[r]]: the colex ranks of its groups. Row a of maps covers the
    a-th anchor, a g-subset holding 0: the ranks of the g-subsets of the
    indices it leaves, in their own rank order, then the anchor's rank."""
    subsets = _subsets(n, g)
    anchors = np.flatnonzero(subsets[:, 0] == 0)
    rest = np.array([[i for i in range(n) if i not in s] for s in subsets[anchors].tolist()], dtype=np.intp)
    local = np.zeros((len(anchors), math.comb(n - g, g)), dtype=np.intp)
    for i, column in enumerate(_subsets(n - g, g).T):
        local += np.array([math.comb(x, i + 1) for x in range(n)])[rest[:, column]]
    maps = np.column_stack([local, anchors]).astype(np.min_scalar_type(len(subsets)))
    tails = np.zeros((1, 0), dtype=np.intp)
    if n > g:
        tail_maps, tail_rows = _split(n - g, g)
        tails = tail_maps[:, tail_rows].reshape(-1, n // g - 1)
    rows = np.column_stack([tails, np.full(len(tails), local.shape[1])])
    return _read_only(maps), _read_only(rows.astype(np.min_scalar_type(local.shape[1])))


def mimic_discrepancy(
    global_spectrum: Sequence[float],
    genuine_spectrum: Sequence[float],
    n_groups: int,
    group_size: int,
) -> float:
    """Smallest |sum of mimicked entropy terms - sum of genuine entropy terms|.

    The global spectrum (all entries, zeros included) is split into n_groups
    unordered groups of group_size; each group's sum is one mimicked
    eigenvalue. Entropy terms are e * log2(e) with 0 * log2(0) = 0. Entries
    are treated as distinguishable items, so duplicate values are allowed.
    The genuine list enters only through its entropy-term sum, which makes the
    result independent of how mimicked and genuine entries would be paired.

    Every grouping is visited. Each subset's entropy term is computed once;
    numpy sums them per grouping in blocks of about 32k terms, so no work
    array is much over 1 MB, and math.fsum rescores each grouping whose
    numpy gap is within a proven error margin of the minimum. The result is
    the exact minimum of the math.fsum gaps.
    """
    if len(global_spectrum) != n_groups * group_size:
        raise DomainError(
            f"{len(global_spectrum)} global eigenvalues cannot split into "
            f"{n_groups} groups of {group_size}"
        )
    if len(genuine_spectrum) != n_groups:
        raise DomainError(f"expected {n_groups} genuine eigenvalues, got {len(genuine_spectrum)}")
    evals = np.asarray(global_spectrum, dtype=float)
    genuine = np.asarray(genuine_spectrum, dtype=float)
    # _xlog2x(nan) is 0, so a NaN would otherwise score as a zero eigenvalue.
    if not (np.isfinite(evals).all() and np.isfinite(genuine).all()):
        raise DomainError("spectra must be finite (no NaN or infinite entries)")
    evals = np.maximum(evals, 0.0)
    genuine_term = math.fsum(_xlog2x(e) for e in sorted(max(float(g), 0.0) for g in genuine))
    # Each row of the gather is summed by the same numpy sum, bit for bit, as the group alone.
    terms = [_xlog2x(float(group.sum())) for group in evals[_subsets(len(evals), group_size)]]
    # numpy's sum of n_groups terms errs by at most (n_groups - 1) * u * sum|term|
    # (u = eps / 2), math.fsum by u * |sum| and each gap's subtraction by
    # u * |gap|: the margin bounds |numpy gap - fsum gap| with room to spare.
    margin = (n_groups + 2) * np.finfo(float).eps * (n_groups * max(map(abs, terms)) + abs(genuine_term))
    terms = np.array(terms)
    maps, rows = _split(len(evals), group_size)
    best = math.inf
    row_step = max(1, _BLOCK // n_groups)
    for r0 in range(0, len(rows), row_step):
        chunk = rows[r0 : r0 + row_step]
        anchor_step = max(1, _BLOCK // chunk.size)
        for a0 in range(0, len(maps), anchor_step):
            block = terms.take(maps[a0 : a0 + anchor_step]).take(chunk, axis=1)
            gaps = np.abs(np.add.reduce(block, axis=2) - genuine_term)
            # The block's exact minimum lies within 2 * margin of its numpy
            # minimum, and any gap below best within margin of best.
            exact = block[gaps <= min(gaps.min() + 2 * margin, best + margin)]
            exact.sort(axis=1)
            for row in set(map(tuple, exact.tolist())):
                best = min(best, abs(math.fsum(row) - genuine_term))
    return best


def _partition_count(n_groups: int, group_size: int) -> int:
    """Unordered groupings of n_groups * group_size items into n_groups groups."""
    return math.factorial(n_groups * group_size) // (
        math.factorial(group_size) ** n_groups * math.factorial(n_groups)
    )


def partition_discrepancy(
    rho: DensityMatrix, side: str, max_dim: int = 16, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """One-sided partition measure via exhaustive grouping of the global spectrum."""
    if side not in ("A", "B"):
        raise DomainError(f"side must be 'A' or 'B', got {side!r}")
    dims = rho.dims
    d = dims.total
    n_groups, group_size = (dims.dA, dims.dB) if side == "A" else (dims.dB, dims.dA)
    if d > max_dim:
        formula = "(d^A d^B)!/((d^B!)^(d^A) d^A!)" if side == "A" else "(d^A d^B)!/((d^A!)^(d^B) d^B!)"
        raise CapabilityError(
            f"total dimension {d} exceeds the guard limit {max_dim}: the side-{side} partition "
            f"search scores {formula} groupings, here {_partition_count(n_groups, group_size)}"
        )
    return mimic_discrepancy(rho.eig.values, rho.reduced_eig[side].values, n_groups, group_size)


def partition_measure(rho: DensityMatrix, max_dim: int = 16, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Larger of the two one-sided partition discrepancies."""
    return max(
        partition_discrepancy(rho, "A", max_dim, tol),
        partition_discrepancy(rho, "B", max_dim, tol),
    )


def von_neumann_entropy(mat: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Entropy -sum(w * log2(w)) over eigenvalues above the rank cutoff."""
    w = hermitian_eig(mat, tol).values
    if w[0] < -tol.psd:
        raise DomainError(f"matrix is not positive semidefinite: min eigenvalue {float(w[0]):.3e}")
    return _entropy(w, tol)


def _entropy(values: np.ndarray, tol: Tolerances) -> float:
    """-sum(w * log2(w)) over the values above the rank cutoff."""
    return -math.fsum(_xlog2x(float(v)) for v in values if v > tol.rank)


class SchmidtDecomposition(NamedTuple):
    """Coefficients descending; columns of vectors_a/vectors_b pair by position."""

    coefficients: np.ndarray
    vectors_a: np.ndarray
    vectors_b: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.coefficients)


def schmidt_decomposition(vec: np.ndarray, dims, tol: Tolerances = DEFAULT_TOLERANCES) -> SchmidtDecomposition:
    """Schmidt form of a unit vector: vec = sum_k coeff_k |a_k>|b_k>."""
    dims = _as_dims(dims)
    vec = np.asarray(vec, dtype=np.complex128).reshape(-1)
    if vec.shape[0] != dims.total:
        raise MalformedInputError(f"vector length {vec.shape[0]} does not match dims {dims.dA}x{dims.dB}")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-8:
        raise DomainError(f"vector norm {norm} is not 1")
    u, s, vh = np.linalg.svd(vec.reshape(dims.dA, dims.dB), full_matrices=False)
    keep = s**2 > tol.rank
    return SchmidtDecomposition(
        coefficients=s[keep],
        vectors_a=u[:, keep],
        vectors_b=vh[keep].T,
    )


def entropy_of_entanglement(vec: np.ndarray, dims, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Reduced-state entropy of a pure state, from its Schmidt coefficients."""
    c = schmidt_decomposition(vec, dims, tol).coefficients ** 2
    return -math.fsum(_xlog2x(float(v)) for v in c)


def ppt_min_eigenvalue(rho: DensityMatrix) -> float:
    """Minimum eigenvalue of the partial transpose; negative certifies entanglement."""
    return rho.ppt_min_eig
