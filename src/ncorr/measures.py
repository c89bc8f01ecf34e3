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
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import CapabilityError, DomainError, MalformedInputError
from .linalg import DensityMatrix, _as_dims, _check_hermitian, _read_only
from .spectral import TruncatedComponent, decompose

_QUOTA_SLACK = 1e-9  # relative headroom over the quota before x is out of domain
_BLOCK = 1 << 15  # group terms per block of the partition search: ~1 MB of work arrays
MAX_PARTITION_DIM = 16  # default guard limit on the total dimension of the partition search


def nearest_integer_multiple(x: float, y: float, tie_tol: float = DEFAULT_TOLERANCES.tie) -> float:
    """The multiple of y nearest to x, rounding half-way cases down; 0 when y = 0.

    A tie is declared whenever the remainder of x modulo y lies within
    tie_tol * y of y/2, so half-way points reached through floating-point
    noise still round down deterministically.
    """
    if not (0 <= x < math.inf and 0 <= y < math.inf):
        raise DomainError(f"arguments must be nonnegative and finite, got x={x}, y={y}")
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
    Each check is written so that NaN and infinite arguments fail it.
    """
    if not 0 < quota < math.inf:
        raise DomainError(f"quota must be positive and finite, got {quota}")
    if not x > 0:
        raise DomainError(f"x must be positive, got {x}")
    if not x <= quota * (1 + _QUOTA_SLACK):
        raise DomainError(f"x={x} exceeds quota={quota}")
    if not 0 <= y < math.inf:
        raise DomainError(f"y must be nonnegative and finite, got {y}")
    return max(0.0, -abs(x - y) * math.log2(x / quota))


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
        # Python floats: the same bits as numpy scalars, at less cost per entry.
        spectrum = (comp.spectrum_a if side == "A" else comp.spectrum_b).tolist()
        eta = comp.eta
        quota = eta * comp.multiplicity
        terms = []
        # nearest_integer_multiple and surprisal_term inline: the same operations in the same order, with
        # their checks of eta and the quota made once. With 3 * quota finite, every multiple (at most
        # x + eta) is finite, so only x is checked per entry. A component that fails a check goes through
        # both functions, which raise its DomainError, if it has one, as they always did.
        if eta > 0 and 3 * quota < math.inf:
            cap, half, tie = quota * (1 + _QUOTA_SLACK), eta / 2, tol.tie * eta
            for x in spectrum:
                if not 0 < x <= cap:
                    break
                q = math.floor(x / eta)
                rem = x - q * eta
                y = q * eta if abs(rem - half) <= tie or rem <= eta - rem else (q + 1) * eta
                terms.append(max(0.0, -abs(x - y) * math.log2(x / quota)))
        if len(terms) < len(spectrum):
            predicted = [nearest_integer_multiple(lam, eta, tol.tie) for lam in spectrum]
            terms = [surprisal_term(x, y, quota) for x, y in zip(spectrum, predicted)]
        contribs.append(math.fsum(terms))
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
            ppt_min_eig=rho.ppt_min_eig,
        )
    return report


def _xlog2x(v: float) -> float:
    return v * math.log2(v) if v > 0 else 0.0


@lru_cache(maxsize=None)
def _subsets(n: int, g: int) -> np.ndarray:
    """Every g-subset of range(n) as an ascending row. Row r is the subset of
    colex rank r, where c_0 < ... < c_(g-1) has rank sum_i C(c_i, i + 1)."""
    # colex(m + 1, k) is colex(m, k) followed by colex(m, k - 1) with m appended.
    tables = [np.zeros((1, 0), dtype=np.intp)] + [np.zeros((0, k), dtype=np.intp) for k in range(1, g + 1)]
    for m in range(n):
        for k in range(min(m + 1, g), max(0, g - n + m), -1):
            appended = np.column_stack([tables[k - 1], np.full(len(tables[k - 1]), m, dtype=np.intp)])
            tables[k] = np.concatenate([tables[k], appended])
    return _read_only(tables[g])


@lru_cache(maxsize=None)
def _split(n: int, g: int) -> tuple[np.ndarray, np.ndarray]:
    """Every unordered grouping of range(n) into groups of g, once each, as
    maps[a, rows[r]]: the colex ranks of its groups. Row a of maps covers the
    a-th anchor, a g-subset holding 0: the ranks of the g-subsets of the
    indices it leaves, in their own rank order, then the anchor's rank."""
    subsets = _subsets(n, g)
    anchors = np.flatnonzero(subsets[:, 0] == 0)
    free = np.ones((len(anchors), n), dtype=bool)
    free[np.arange(len(anchors))[:, None], subsets[anchors]] = False
    rest = np.nonzero(free)[1].reshape(len(anchors), n - g)
    maps = np.zeros((len(anchors), math.comb(n - g, g) + 1), dtype=np.min_scalar_type(len(subsets)))
    maps[:, -1] = anchors
    rows = np.zeros((1, 1), dtype=np.min_scalar_type(maps.shape[1] - 1))
    if n > g:
        # Each rank term C(c_i, i + 1) with c_i < n and i < g <= n / 2 is at
        # most C(n, g), so the terms and their partial sums fit maps' dtype.
        for i, column in enumerate(_subsets(n - g, g).T):
            weights = np.array([math.comb(x, i + 1) for x in range(n)], dtype=maps.dtype)[rest]
            maps[:, :-1] += weights[:, column]
        tail_maps, tail_rows = _split(n - g, g)
        rows = np.empty((len(tail_maps), len(tail_rows), n // g), dtype=rows.dtype)
        rows[:, :, :-1] = tail_maps[:, tail_rows]
        rows = rows.reshape(-1, n // g)
        rows[:, -1] = maps.shape[1] - 1
    return _read_only(maps), _read_only(rows)


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

    Every grouping is visited. Each subset's entropy term is computed once:
    one numpy row sum over the gathered table of group_size-subsets gives
    every subset's sum, bit for bit the sum numpy gives that subset alone,
    and math.log2 turns each into its term. numpy sums the terms per
    grouping in blocks of about 32k terms, one row of terms per group, so no
    work array is much over 1 MB, and math.fsum rescores each grouping whose
    numpy gap is within a proven error margin of the minimum. The result is
    the exact minimum of the math.fsum gaps, whatever order numpy adds in.
    """
    _check_count(n_groups, "n_groups")
    _check_count(group_size, "group_size")
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
    genuine_term = math.fsum(_xlog2x(float(g)) for g in genuine)
    # Each row of the gather is summed by the same numpy sum, bit for bit, as the group alone.
    sums = evals[_subsets(len(evals), group_size)].sum(axis=1)
    terms = np.array(list(map(_xlog2x, sums.tolist())))
    # numpy's sum of n_groups terms errs by at most (n_groups - 1) * u * sum|term|
    # (u = eps / 2), math.fsum by u * |sum| and each gap's subtraction by
    # u * |gap|: the margin bounds |numpy gap - fsum gap| with room to spare.
    margin = (n_groups + 2) * np.finfo(float).eps * (n_groups * np.abs(terms).max() + abs(genuine_term))
    maps, rows = _split(len(evals), group_size)
    best = math.inf
    row_step = max(1, _BLOCK // n_groups)
    for r0 in range(0, len(rows), row_step):
        chunk = rows[r0 : r0 + row_step]
        anchor_step = max(1, _BLOCK // chunk.size)
        for a0 in range(0, len(maps), anchor_step):
            # block[a, i, r] is the i-th group's term of grouping (a, r), so
            # the sum over i adds whole contiguous rows, not short strided runs.
            block = terms.take(maps[a0 : a0 + anchor_step]).take(chunk.T, axis=1)
            gaps = np.abs(np.add.reduce(block, axis=1) - genuine_term)
            # The block's exact minimum lies within 2 * margin of its numpy
            # minimum, and any gap below best within margin of best.
            exact = block.transpose(0, 2, 1)[gaps <= min(gaps.min() + 2 * margin, best + margin)]
            exact.sort(axis=1)
            for row in set(map(tuple, exact.tolist())):
                best = min(best, abs(math.fsum(row) - genuine_term))
    return best


def _check_count(value, what: str, least: int = 1) -> None:
    """value must be an integer >= least; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {value!r}")


def _partition_count(n_groups: int, group_size: int) -> int:
    """Unordered groupings of n_groups * group_size items into n_groups groups."""
    return math.factorial(n_groups * group_size) // (
        math.factorial(group_size) ** n_groups * math.factorial(n_groups)
    )


def partition_discrepancy(
    rho: DensityMatrix, side: str, max_dim: int = MAX_PARTITION_DIM, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """One-sided partition measure via exhaustive grouping of the global spectrum; tol is not read."""
    if side not in ("A", "B"):
        raise DomainError(f"side must be 'A' or 'B', got {side!r}")
    _check_count(max_dim, "max_dim")
    dims = rho.dims
    d = dims.total
    n_groups, group_size = (dims.dA, dims.dB) if side == "A" else (dims.dB, dims.dA)
    if d > max_dim:
        formula = "(d^A d^B)!/((d^B!)^(d^A) d^A!)" if side == "A" else "(d^A d^B)!/((d^A!)^(d^B) d^B!)"
        count = _partition_count(n_groups, group_size)  # str() refuses past sys.get_int_max_str_digits() digits
        shown = count if count < 10**20 else f"about 10^{math.log10(count):.1f}"
        raise CapabilityError(
            f"total dimension {d} exceeds the guard limit {max_dim}: the side-{side} partition "
            f"search scores {formula} groupings, here {shown}"
        )
    return mimic_discrepancy(rho.eig.values, rho.reduced_eig[side].values, n_groups, group_size)


def partition_measure(rho: DensityMatrix, max_dim: int = MAX_PARTITION_DIM) -> float:
    """Larger of the two one-sided partition discrepancies."""
    return max(partition_discrepancy(rho, "A", max_dim), partition_discrepancy(rho, "B", max_dim))


def von_neumann_entropy(mat: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Entropy -sum(w * log2(w)) over eigenvalues above the rank cutoff."""
    mat = np.asarray(mat)
    _check_hermitian(mat, tol.herm)
    w = np.linalg.eigh(mat)[0]
    if w[0] < -tol.psd:
        raise DomainError(f"matrix is not positive semidefinite: min eigenvalue {float(w[0]):.3e}")
    return _entropy(w, tol)


def _entropy(values: np.ndarray, tol: Tolerances) -> float:
    """-sum(w * log2(w)) over the values above the rank cutoff."""
    # 0.0 - s, not -s: equal for every nonzero s, but +0.0 rather than -0.0 for s = 0.
    return 0.0 - math.fsum(_xlog2x(float(v)) for v in values if v > tol.rank)


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
    if not abs(norm - 1.0) <= tol.trace:  # a NaN norm fails too
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
    return _entropy(schmidt_decomposition(vec, dims, tol).coefficients ** 2, tol)


def ppt_min_eigenvalue(rho: DensityMatrix) -> float:
    """Minimum eigenvalue of the partial transpose; negative certifies entanglement.

    The library reads rho.ppt_min_eig directly; this stays exported because
    perfbench/pipeline.py imports it.
    """
    return rho.ppt_min_eig
