"""Polynomial-time tests for the existence of a product eigenbasis.

Each detector either reaches a decisive verdict or reports why it cannot.
CLASSICAL verdicts always come with an explicit product eigenbasis, and each
passes one check, _in_product_basis: the basis leaves at most tol.offdiag off
the diagonal of the state. NONCLASSICAL verdicts rest on a necessity argument
(a nondegenerate eigenvector of the wrong shape, a reduced eigenbasis that
fails to diagonalize, non-commuting conditional blocks, a non-vanishing
commutator with a reduced state, a negative partial-transpose eigenvalue, or
a truncation measure above tol.measure).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .linalg import DensityMatrix, _blocks, commutator_fro_norm, projector
from .measures import ppt_min_eigenvalue, schmidt_decomposition, truncation_measure

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
    residual the Frobenius norm of the rest. Every classical outcome rests on
    this one check: the basis diagonalizes the state when the residual is zero.
    """
    u = np.kron(basis_a, basis_b)
    rotated = u.conj().T @ mat @ u
    diagonal = np.diagonal(rotated)
    residual = float(np.linalg.norm(rotated - np.diag(diagonal), "fro"))
    return diagonal.real.reshape(basis_a.shape[1], basis_b.shape[1]), residual


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
    gap = _min_gap(values[nonzero])
    if gap <= tol.deg:
        return TestOutcome(name, "not-applicable", gap, "nonzero spectrum is degenerate")
    factors = []  # (A part, B part) of each nonzero eigenvector
    for i in nonzero:
        schmidt = schmidt_decomposition(vectors[:, i], dims, tol)
        if schmidt.rank >= 2:
            return TestOutcome(
                name,
                "nonclassical",
                float(schmidt.coefficients[1]),
                f"eigenvector of eigenvalue {values[i]:.6g} has Schmidt rank {schmidt.rank}",
            )
        factors.append((schmidt.vectors_a[:, 0], schmidt.vectors_b[:, 0]))
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
    weights, residual = _in_product_basis(rho.mat, *bases)
    if residual > tol.offdiag:
        return TestOutcome(name, "inconclusive", residual, "product basis failed to reconstruct the state")
    return TestOutcome(
        name,
        "classical",
        residual,
        "nondegenerate eigenvectors form a product eigenbasis",
        basis_a=bases[0],
        basis_b=bases[1],
        weights=weights,
    )


def detect_local_both_nondegenerate(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> TestOutcome:
    """Check whether the product of the (unique) local eigenbases diagonalizes rho.

    Applicable only when both reduced states are fully nondegenerate; a
    product eigenbasis must then be built from exactly those local bases. A
    residual above tol.offdiag only by eigh's eigenvector error is inconclusive.
    """
    name = "local-both-nondegenerate"
    wa, va = rho.reduced_eig["A"]
    wb, vb = rho.reduced_eig["B"]
    gap = min(_min_gap(wa), _min_gap(wb))
    if gap <= tol.deg:
        return TestOutcome(name, "not-applicable", gap, "a reduced spectrum is degenerate")
    weights, residual = _in_product_basis(rho.mat, va, vb)
    if residual > tol.offdiag:
        # eigh's local eigenvectors may be off by up to n eps ||rho_side|| / gap_side each (Davis-Kahan),
        # which can raise the residual by twice ||rho||_F times their sum.
        slack = sum(len(w) * w[-1] / _min_gap(w) for w in (wa, wb)) * 2 * _EPS * np.linalg.norm(rho.mat)
        if residual <= tol.offdiag + slack:
            return TestOutcome(
                name, "inconclusive", residual, f"residual lies within the eigenvector error bound {slack:.3g}"
            )
        return TestOutcome(
            name, "nonclassical", residual, "local eigenbasis product does not diagonalize the state"
        )
    return TestOutcome(
        name,
        "classical",
        residual,
        "product of local eigenbases diagonalizes the state",
        basis_a=va,
        basis_b=vb,
        weights=weights,
    )


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
    decisive.
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
    worst = max((commutator_fro_norm(a, b) for a, b in combinations(blocks, 2)), default=0.0)
    if worst > tol.comm:
        return TestOutcome(name, "nonclassical", worst, "conditional blocks do not commute")
    basis_a, basis_b = (_joint_eigenbasis(blocks), basis)[::by_side]
    weights, residual = _in_product_basis(rho.mat, basis_a, basis_b)
    if residual > tol.offdiag:
        return TestOutcome(name, "inconclusive", worst, "failed to jointly diagonalize commuting blocks")
    return TestOutcome(
        name,
        "classical",
        worst,
        "state is block-diagonal with commuting conditional blocks",
        basis_a=basis_a,
        basis_b=basis_b,
        weights=weights,
    )


def detect_commutator(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> TestOutcome:
    """Necessary condition: a classical state commutes with both reduced states."""
    name = "commutator"
    dims = rho.dims
    ca = commutator_fro_norm(rho.mat, np.kron(rho.reduced["A"], np.eye(dims.dB)))
    cb = commutator_fro_norm(rho.mat, np.kron(np.eye(dims.dA), rho.reduced["B"]))
    witness = max(ca, cb)
    if witness > tol.comm:
        side = "A" if ca >= cb else "B"
        return TestOutcome(
            name, "nonclassical", witness, f"state does not commute with reduced state {side} (x) identity"
        )
    return TestOutcome(name, "inconclusive", witness, "state commutes with both reduced states")


def detect_npt(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> TestOutcome:
    """Entanglement certificate: negative partial-transpose eigenvalue."""
    name = "npt"
    m = ppt_min_eigenvalue(rho)
    if m < -tol.psd:
        return TestOutcome(name, "nonclassical", m, "partial transpose has a negative eigenvalue")
    return TestOutcome(name, "inconclusive", m, "partial transpose is positive semidefinite")


def _measure_witness(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> TestOutcome:
    """Necessary condition: a classical state has truncation measure zero."""
    name = "measure-witness"
    m = truncation_measure(rho, tol).value
    if m > tol.measure:
        return TestOutcome(name, "nonclassical", m, "truncation measure exceeds threshold")
    return TestOutcome(name, "inconclusive", m, "truncation measure is zero")


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
