"""Polynomial-time tests for the existence of a product eigenbasis.

Each detector either reaches a decisive verdict or reports why it cannot.
CLASSICAL verdicts always come with an explicit product eigenbasis that
reconstructs the state; NONCLASSICAL verdicts rest on a necessity argument
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
from .linalg import DensityMatrix, _blocks, _product_basis_matrix, commutator_fro_norm, projector
from .measures import ppt_min_eigenvalue, schmidt_decomposition, truncation_measure

CLASSICAL = "CLASSICAL"
NONCLASSICAL = "NONCLASSICAL"
UNKNOWN = "UNKNOWN"


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


def _offdiag_norm(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat - np.diag(np.diagonal(mat)), "fro"))


def _group_by_overlap(vectors: np.ndarray, gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Assign each vector a group label, merging vectors equal up to phase.

    Callers guarantee pairwise overlaps are near 0 or near 1, so a 1/2
    threshold separates the two cases cleanly. A vector's group is that of
    the first vector it overlaps (itself, if none before it does); groups are
    numbered in order of first appearance and represented by that vector.
    """
    reps, labels = np.unique((gram > 0.5).argmax(axis=0), return_inverse=True)
    return vectors[:, reps], labels


def detect_nondegenerate_global(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> TestOutcome:
    """Inspect the eigenvectors of a state whose nonzero spectrum is nondegenerate.

    Nondegenerate eigenvectors are unique up to phase, so a product eigenbasis
    forces each one to be a product vector and forces their local components
    to be pairwise orthogonal or equal. Any violation is decisive the other
    way. The classical conclusion additionally needs full rank, since a zero
    eigenspace is free to spoil completion of the local bases.
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
    overlaps = []  # per side: local components as columns, and their Gram matrix |<v_i|v_j>|
    for side, local in zip("AB", zip(*factors)):
        vectors = np.column_stack(local)
        gram = np.abs(vectors.conj().T @ vectors)
        # argwhere is row-major: the witness is the first offending pair i < j in that order.
        offending = np.argwhere(np.triu((gram > tol.orth) & (gram < 1 - tol.orth), 1))
        if len(offending):
            return TestOutcome(
                name,
                "nonclassical",
                float(gram[tuple(offending[0])]),
                f"subsystem {side} eigenvector components neither orthogonal nor equal",
            )
        overlaps.append((vectors, gram))
    if len(nonzero) < dims.total:
        return TestOutcome(
            name,
            "inconclusive",
            float(len(nonzero)),
            "product checks passed but the spectrum is rank-deficient",
        )
    (basis_a, labels_a), (basis_b, labels_b) = (_group_by_overlap(*pair) for pair in overlaps)
    weights = np.zeros((dims.dA, dims.dB))
    weights[labels_a, labels_b] = values[nonzero]
    residual = float(np.linalg.norm(rho.mat - _product_basis_matrix(basis_a, basis_b, weights), "fro"))
    if residual > tol.offdiag:
        return TestOutcome(name, "inconclusive", residual, "product basis failed to reconstruct the state")
    return TestOutcome(
        name,
        "classical",
        residual,
        "nondegenerate eigenvectors form a product eigenbasis",
        basis_a=basis_a,
        basis_b=basis_b,
        weights=weights,
    )


def detect_local_both_nondegenerate(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> TestOutcome:
    """Check whether the product of the (unique) local eigenbases diagonalizes rho.

    Applicable only when both reduced states are fully nondegenerate; a
    product eigenbasis must then be built from exactly those local bases.
    """
    name = "local-both-nondegenerate"
    dims = rho.dims
    wa, va = rho.reduced_eig["A"]
    wb, vb = rho.reduced_eig["B"]
    gap = min(_min_gap(wa), _min_gap(wb))
    if gap <= tol.deg:
        return TestOutcome(name, "not-applicable", gap, "a reduced spectrum is degenerate")
    u = np.kron(va, vb)
    rotated = u.conj().T @ rho.mat @ u
    residual = _offdiag_norm(rotated)
    if residual > tol.offdiag:
        return TestOutcome(
            name, "nonclassical", residual, "local eigenbasis product does not diagonalize the state"
        )
    weights = np.diagonal(rotated).real.reshape(dims.dA, dims.dB)
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


def _joint_eigenbasis(blocks: np.ndarray, tol: Tolerances) -> np.ndarray | None:
    """Common eigenbasis of commuting Hermitian matrices from one fixed random combination, or None."""
    coeff = np.random.default_rng(7).standard_normal(len(blocks))
    _, p = np.linalg.eigh(sum(c * b for c, b in zip(coeff, blocks)))
    if all(_offdiag_norm(p.conj().T @ b @ p) <= tol.offdiag for b in blocks):
        return p
    return None


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
    if side == "B":
        recon = sum(np.kron(blk, projector(basis[:, j])) for j, blk in enumerate(blocks))
    else:
        recon = sum(np.kron(projector(basis[:, j]), blk) for j, blk in enumerate(blocks))
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
    shared = _joint_eigenbasis(blocks, tol)
    if shared is None:
        return TestOutcome(name, "inconclusive", worst, "failed to jointly diagonalize commuting blocks")
    weights = np.column_stack([np.diagonal(shared.conj().T @ b @ shared).real for b in blocks])
    if side == "B":
        basis_a, basis_b = shared, basis
    else:
        basis_a, basis_b, weights = basis, shared, weights.T
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
