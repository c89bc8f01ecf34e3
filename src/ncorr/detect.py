"""Polynomial-time tests for the existence of a product eigenbasis.

Each detector either reaches a decisive verdict or reports why it cannot.
One certificate, _certify, builds every classical outcome, with an explicit
product basis that leaves at most tol.offdiag off the diagonal of the state.
NONCLASSICAL verdicts rest on a necessity argument (a nondegenerate
eigenvector of the wrong shape, a reduced eigenbasis that fails to
diagonalize, non-commuting conditional blocks, a non-vanishing commutator
with a reduced state, a negative partial-transpose eigenvalue, or a
truncation measure above tol.measure), and one rule, _decide, calls a witness
nonclassical only beyond threshold + error bound; its docstring names the
comparisons it does not make.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .linalg import DensityMatrix, _blocks, projector
from .measures import truncation_measure
from .spectral import _STACK_ENTRIES

CLASSICAL = "CLASSICAL"
NONCLASSICAL = "NONCLASSICAL"
UNKNOWN = "UNKNOWN"

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class TestOutcome:
    """Result of one detector: outcome plus its numeric witness."""

    test: str
    outcome: str  # "classical" | "nonclassical" | "inconclusive" | "not-applicable"
    witness: float
    detail: str = ""
    basis_a: np.ndarray | None = None
    basis_b: np.ndarray | None = None
    weights: np.ndarray | None = None

    @property
    def decisive(self) -> bool:
        return self.outcome in ("classical", "nonclassical")


@dataclass(frozen=True, eq=False)
class DetectionVerdict:
    """Combined verdict with the full evidence trail of every test run."""

    verdict: str  # CLASSICAL | NONCLASSICAL | UNKNOWN
    decided_by: str | None
    evidence: tuple[TestOutcome, ...]
    applied: tuple[str, ...]
    basis_a: np.ndarray | None = None
    basis_b: np.ndarray | None = None
    weights: np.ndarray | None = None


def _min_gap(values: np.ndarray) -> float:
    if len(values) < 2:
        return np.inf
    return float(np.diff(values).min())


def _in_product_basis(mat: np.ndarray, basis_a: np.ndarray, basis_b: np.ndarray) -> tuple[np.ndarray, float]:
    """Weights and off-diagonal residual of mat in the product basis kron(basis_a, basis_b).

    The weights are the diagonal of U^dag mat U as a (dA, dB) array, the
    residual the Frobenius norm of the rest, zero when the basis diagonalizes mat.
    """
    u = np.kron(basis_a, basis_b)
    rotated = u.conj().T @ mat @ u
    diagonal = np.diagonal(rotated)
    residual = float(np.linalg.norm(rotated - np.diag(diagonal), "fro"))
    return diagonal.real.reshape(basis_a.shape[1], basis_b.shape[1]), residual


def _decide(name: str, witness: float, threshold: float, bound: float, details: dict[str, str]) -> TestOutcome:
    """The decision rule: "nonclassical" when witness exceeds threshold + bound, else "inconclusive".

    bound is the error the witness may carry (an infinite one never decides);
    details maps each outcome to its detail. Three comparisons keep their own
    test, because the witness they report is not the quantity they compare:
    global's Schmidt s2 (decided on s2^2 > tol.rank), global's two-sided
    overlap test, and npt's lambda_min (decided on lambda_min < -tol.psd).
    """
    outcome = "nonclassical" if witness > threshold + bound else "inconclusive"
    return TestOutcome(name, outcome, witness, details[outcome])


def _certify(
    name: str, rho: DensityMatrix, bases: tuple, tol: Tolerances, details: dict[str, str], witness=None, slack=np.inf
) -> TestOutcome:
    """The one way to a classical outcome: the product basis leaves at most tol.offdiag off rho's diagonal.

    The witness is that residual unless one is given. Past tol.offdiag, _decide
    judges it against tol.offdiag + slack, the most eigh's error can add.
    """
    weights, residual = _in_product_basis(rho.mat, *bases)
    witness = residual if witness is None else witness
    if residual > tol.offdiag:
        return _decide(name, witness, tol.offdiag, slack, details)
    return TestOutcome(name, "classical", witness, details["classical"], *bases, weights)


def _schmidt_forms(vectors: np.ndarray, columns: np.ndarray, dims, tol: Tolerances):
    """Yield (Schmidt coefficients, first A vector, first B vector) of each listed column, in order.

    One np.linalg.svd per (n, dA, dB) stack of at most _STACK_ENTRIES entries gives each matrix the
    bits of its own call. The first stack holds one column and a stack is computed only when the
    caller asks for one of its columns, so an entangled first eigenvector costs one small SVD.
    """
    step = max(1, _STACK_ENTRIES // dims.total)
    bounds = [0, *range(1, len(columns), step), len(columns)]
    for lo, hi in zip(bounds, bounds[1:]):
        stack = vectors[:, columns[lo:hi]].T.reshape(-1, dims.dA, dims.dB)
        u, s, vh = np.linalg.svd(stack, full_matrices=False)
        for coefficients, ua, vb in zip(s, u, vh):
            yield coefficients[coefficients**2 > tol.rank], ua[:, 0], vb[0]


def detect_nondegenerate_global(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> TestOutcome:
    """Inspect the eigenvectors of a state whose nonzero spectrum is nondegenerate.

    Nondegenerate eigenvectors are unique up to phase, so a product eigenbasis
    forces each one to be a product vector and forces their local components
    to be pairwise orthogonal or equal. Any violation is decisive the other
    way, except an overlap within eigh's eigenvector error bound of 0 or 1,
    which leaves the outcome inconclusive. The classical conclusion
    additionally needs full rank, since a zero eigenspace is free to spoil
    completion of the local bases.
    """
    name = "global-nondegenerate"
    dims = rho.dims
    values, vectors = rho.eig
    nonzero = np.flatnonzero(values > tol.zero)
    if not len(nonzero):
        return TestOutcome(name, "not-applicable", 0.0, "no eigenvalue exceeds tol.zero")
    gap = _min_gap(values[nonzero])
    if gap <= tol.deg:
        return TestOutcome(name, "not-applicable", gap, "nonzero spectrum is degenerate")
    factors = []  # (A part, B part) of each nonzero eigenvector
    for i, (coefficients, part_a, part_b) in zip(nonzero, _schmidt_forms(vectors, nonzero, dims, tol)):
        if len(coefficients) >= 2:
            return TestOutcome(
                name,
                "nonclassical",
                float(coefficients[1]),
                f"eigenvector of eigenvalue {values[i]:.6g} has Schmidt rank {len(coefficients)}",
            )
        factors.append((part_a, part_b))
    # eigh may mix the eigenvectors of nearby eigenvalues by up to this much (Davis-Kahan sin theta),
    # so an overlap within it of 0 or 1 proves nothing either way. The smallest kept eigenvector
    # also mixes with the null space, so the gap runs down to the largest eigenvalue dropped as zero.
    bound = dims.total * _EPS * values[-1] / _min_gap(values[max(nonzero[0] - 1, 0) :])
    bases = []  # per side: the first local component of each group of components equal up to phase
    blurred = False  # some overlap is neither 0 nor 1 to tol.orth, but only within the bound
    for side, local in zip("AB", zip(*factors)):
        vectors = np.column_stack(local)
        gram = np.abs(vectors.conj().T @ vectors)
        offending = np.triu((gram > tol.orth) & (gram < 1 - tol.orth), 1)
        # argwhere is row-major: the witness is the first pair i < j beyond the bound in that order.
        beyond = np.argwhere(offending & (gram > bound) & (gram < 1 - bound))
        if len(beyond):
            return TestOutcome(
                name,
                "nonclassical",
                float(gram[tuple(beyond[0])]),
                f"subsystem {side} eigenvector components neither orthogonal nor equal",
            )
        blurred = blurred or offending.any()
        # Every overlap is now near 0 or near 1, so 1/2 separates the two: each column's argmax is
        # the first vector it overlaps, which is itself exactly for the first vector of each group.
        # np.unique(first) gives the same columns, but numpy 2.4 pages in about 1 MB for its hash path.
        first = (gram > 0.5).argmax(axis=0)
        bases.append(vectors[:, np.flatnonzero(first == np.arange(len(first)))])
    if blurred:
        return TestOutcome(
            name,
            "inconclusive",
            bound,
            f"eigenvector component overlaps lie within the eigenvector error bound {bound:.3g} of 0 or 1",
        )
    if len(nonzero) < dims.total:
        return TestOutcome(
            name,
            "inconclusive",
            float(len(nonzero)),
            "product checks passed but the spectrum is rank-deficient",
        )
    details = {
        "classical": "nondegenerate eigenvectors form a product eigenbasis",
        "inconclusive": "product basis failed to reconstruct the state",
    }
    return _certify(name, rho, bases, tol, details)


def detect_local_both_nondegenerate(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> TestOutcome:
    """Check whether the product of the (unique) local eigenbases diagonalizes rho.

    Applicable only when both reduced states are fully nondegenerate; a
    product eigenbasis must then be built from exactly those local bases. A
    residual above tol.offdiag only by eigh's eigenvector error is inconclusive.
    """
    name = "local-both-nondegenerate"
    wa, va = rho.reduced_eig["A"]
    wb, vb = rho.reduced_eig["B"]
    gaps = _min_gap(wa), _min_gap(wb)
    if min(gaps) <= tol.deg:
        return TestOutcome(name, "not-applicable", min(gaps), "a reduced spectrum is degenerate")
    # eigh's local eigenvectors may be off by up to n eps ||rho_side|| / gap_side each (Davis-Kahan),
    # which can raise the residual by twice ||rho||_F times their sum.
    slack = sum(len(w) * w[-1] / g for w, g in zip((wa, wb), gaps)) * 2 * _EPS * np.linalg.norm(rho.mat)
    details = {
        "classical": "product of local eigenbases diagonalizes the state",
        "inconclusive": f"residual lies within the eigenvector error bound {slack:.3g}",
        "nonclassical": "local eigenbasis product does not diagonalize the state",
    }
    return _certify(name, rho, (va, vb), tol, details, slack=slack)


def _conditional_blocks(rho: DensityMatrix, basis: np.ndarray, sandwiched: str) -> np.ndarray:
    """Stacked blocks <v_j| rho |v_j> over the sandwiched subsystem's basis vectors."""
    _, r = _blocks(rho.mat, rho.dims)
    spec = "bj,abcd,dj->jac" if sandwiched == "B" else "aj,abcd,cj->jbd"
    return np.einsum(spec, basis.conj(), r, basis)


def _joint_eigenbasis(blocks: np.ndarray) -> np.ndarray:
    """Eigenbasis of one fixed random combination of Hermitian matrices: their common one, if they have one."""
    coeff = np.random.default_rng(7).standard_normal(len(blocks))
    return np.linalg.eigh(sum(c * b for c, b in zip(coeff, blocks)))[1]


def detect_local_one_nondegenerate(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> TestOutcome:
    """Handle states where exactly one reduced spectrum is nondegenerate.

    The state must be block-diagonal across that side's unique eigenbasis,
    and the conditional blocks must pairwise commute; both conditions
    together are equivalent to a product eigenbasis, so each failure is
    decisive. A joint eigenbasis that fails the certificate is inconclusive.
    """
    name = "local-one-nondegenerate"
    wa, va = rho.reduced_eig["A"]
    wb, vb = rho.reduced_eig["B"]
    nondeg_a = _min_gap(wa) > tol.deg
    nondeg_b = _min_gap(wb) > tol.deg
    if nondeg_a == nondeg_b:
        return TestOutcome(
            name,
            "not-applicable",
            0.0,
            "needs exactly one nondegenerate reduced spectrum",
        )
    side = "B" if nondeg_b else "A"
    basis = vb if nondeg_b else va
    blocks = _conditional_blocks(rho, basis, side)
    by_side = 1 if side == "B" else -1  # puts (the blocks' subsystem, side) in (A, B) order
    recon = sum(np.kron(*(blk, projector(basis[:, j]))[::by_side]) for j, blk in enumerate(blocks))
    residual = float(np.linalg.norm(rho.mat - recon, "fro"))
    if residual > tol.offdiag:
        return TestOutcome(
            name,
            "nonclassical",
            residual,
            f"state is not block-diagonal across the subsystem {side} eigenbasis",
        )
    worst = max((float(np.linalg.norm(a @ b - b @ a, "fro")) for a, b in combinations(blocks, 2)), default=0.0)
    if worst > tol.comm:
        return TestOutcome(name, "nonclassical", worst, "conditional blocks do not commute")
    details = {
        "classical": "state is block-diagonal with commuting conditional blocks",
        "inconclusive": "failed to jointly diagonalize commuting blocks",
    }
    return _certify(name, rho, (_joint_eigenbasis(blocks), basis)[::by_side], tol, details, witness=worst)


def detect_commutator(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> TestOutcome:
    """Necessary condition: a classical state commutes with both reduced states.

    rho times rho_A (x) 1 or 1 (x) rho_B, either side, is one product on a view of mat: O(d^2 (dA + dB)).
    """
    name = "commutator"
    mat, ra, rb = rho.mat, rho.reduced["A"], rho.reduced["B"]
    d, dA, dB = len(mat), rho.dims.dA, rho.dims.dB
    rows = mat.reshape(d, dA, dB)
    # One side at a time, so at most two products and their difference are alive.
    ca = float(np.linalg.norm((ra @ mat.reshape(dA, -1)).reshape(d, d) - (ra.T @ rows).reshape(d, d), "fro"))
    cb = float(np.linalg.norm((rb @ mat.reshape(dA, dB, d)).reshape(d, d) - (rows @ rb).reshape(d, d), "fro"))
    details = {
        "nonclassical": f"state does not commute with reduced state {'A' if ca >= cb else 'B'} (x) identity",
        "inconclusive": "state commutes with both reduced states",
    }
    return _decide(name, max(ca, cb), tol.comm, 0.0, details)


def detect_npt(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> TestOutcome:
    """Entanglement certificate: negative partial-transpose eigenvalue."""
    name = "npt"
    m = rho.ppt_min_eig
    if m < -tol.psd:
        return TestOutcome(name, "nonclassical", m, "partial transpose has a negative eigenvalue")
    return TestOutcome(name, "inconclusive", m, "partial transpose is positive semidefinite")


def _measure_witness(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> TestOutcome:
    """Necessary condition: a classical state has truncation measure zero."""
    details = {"nonclassical": "truncation measure exceeds threshold", "inconclusive": "truncation measure is zero"}
    return _decide("measure-witness", truncation_measure(rho, tol).value, tol.measure, 0.0, details)


_DETECTORS = (
    detect_nondegenerate_global,
    detect_local_both_nondegenerate,
    detect_local_one_nondegenerate,
    detect_commutator,
    detect_npt,
    _measure_witness,
)


def classify(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> DetectionVerdict:
    """Run every detector in order; the first decisive outcome wins.

    All outcomes are retained as evidence regardless of where the decision
    fell, so the trail never hides a later test's result.
    """
    evidence = tuple(d(rho, tol) for d in _DETECTORS)
    decider = next((o for o in evidence if o.decisive), None)
    return DetectionVerdict(
        verdict=UNKNOWN if decider is None else CLASSICAL if decider.outcome == "classical" else NONCLASSICAL,
        decided_by=getattr(decider, "test", None),
        evidence=evidence,
        applied=tuple(o.test for o in evidence),
        basis_a=getattr(decider, "basis_a", None),
        basis_b=getattr(decider, "basis_b", None),
        weights=getattr(decider, "weights", None),
    )
