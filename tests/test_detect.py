"""Product-eigenbasis detection battery."""
from dataclasses import fields, replace
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles
from ncorr import (
    CATALOG_NAMES,
    CLASSICAL,
    DEFAULT_TOLERANCES,
    NONCLASSICAL,
    UNKNOWN,
    DensityMatrix,
    StateSpec,
    Tolerances,
    bell,
    build,
    classify,
    detect_commutator,
    detect_local_both_nondegenerate,
    detect_local_one_nondegenerate,
    detect_nondegenerate_global,
    detect_npt,
    haar_unitary,
    kappa,
    phi_p,
    projector,
    random_classical,
    random_density,
    sigma,
    tau,
    truncation_measure,
    varsigma,
)
from ncorr.cli import _detection_section, _measure_section
from ncorr.detect import _conditional_blocks, _in_product_basis, _joint_eigenbasis
from ncorr.io import dumps


def reconstruct(basis_a, basis_b, weights):
    d = basis_a.shape[0] * basis_b.shape[0]
    mat = np.zeros((d, d), dtype=complex)
    for j in range(weights.shape[0]):
        for k in range(weights.shape[1]):
            mat += weights[j, k] * np.kron(projector(basis_a[:, j]), projector(basis_b[:, k]))
    return mat


def conditional_state(weights, basis_a, basis_b):
    """Explicitly classical state diagonal in the given product basis."""
    dims = (basis_a.shape[0], basis_b.shape[0])
    return DensityMatrix(reconstruct(basis_a, basis_b, weights), dims)


def commuting_blocks_state():
    """Degenerate A reduction, nondegenerate B reduction, diagonal blocks."""
    rng = np.random.default_rng(2)
    ub, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    weights = np.array([[0.30, 0.20], [0.35, 0.15]])  # equal row sums
    return conditional_state(weights, np.eye(2), ub)


class TestGlobalNondegenerate:
    def test_sigma_local_overlap_violation(self):
        out = detect_nondegenerate_global(sigma())
        assert out.outcome == "nonclassical"
        assert "neither orthogonal nor equal" in out.detail
        assert out.witness == pytest.approx(1 / np.sqrt(2), abs=1e-9)

    def test_entangled_eigenvector(self):
        out = detect_nondegenerate_global(phi_p(0.3))
        assert out.outcome == "nonclassical"
        assert "Schmidt rank" in out.detail

    def test_bell_is_caught_despite_rank_deficiency(self):
        assert detect_nondegenerate_global(bell(2)).outcome == "nonclassical"

    def test_degenerate_spectrum_not_applicable(self):
        out = detect_nondegenerate_global(tau())
        assert out.outcome == "not-applicable"

    @given(st.integers(0, 25))
    def test_classical_full_rank_certified(self, seed):
        sample = random_classical((2, 3), seed=seed)
        out = detect_nondegenerate_global(sample.state)
        assert out.outcome == "classical"
        rebuilt = reconstruct(out.basis_a, out.basis_b, out.weights)
        assert np.abs(rebuilt - sample.state.mat).max() < 1e-8

    def test_near_degenerate_classical_seed_is_classical(self):
        """Two eigenvalues 8.6e-9 apart: eigh mixes their eigenvectors, leaving overlaps such as 2.7e-10,
        above tol.orth but inside the eigenvector error bound (1.4e-7), so they decide nothing."""
        rho = random_classical((12, 12), seed=1195264631).state
        assert detect_nondegenerate_global(rho).outcome != "nonclassical"
        assert classify(rho).verdict == CLASSICAL

    def test_explicit_near_degenerate_pair_is_classical(self):
        """Hadamard bases on both sides and two weights 1e-8 (10 tol.deg) apart."""
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        rho = conditional_state(np.array([[0.1, 0.1 + 1e-8], [0.3, 0.5 - 1e-8]]), h, h)
        assert detect_nondegenerate_global(rho).outcome != "nonclassical"
        verdict = classify(rho)
        assert verdict.verdict == CLASSICAL
        assert np.abs(reconstruct(verdict.basis_a, verdict.basis_b, verdict.weights) - rho.mat).max() < 1e-8

    def test_eigenvalue_next_to_the_null_space_is_classical(self):
        """Hadamard bases on both sides and weights (0, 1e-8, 0.4, 0.6 - 1e-8): eigh mixes the 1e-8
        eigenvector with the null space, so the bound's gap runs down to the eigenvalue dropped as zero."""
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        rho = conditional_state(np.array([[0, 1e-8], [0.4, 0.6 - 1e-8]]), h, h)
        out = detect_nondegenerate_global(rho)
        assert out.outcome == "inconclusive"
        assert out.witness == pytest.approx(4 * np.finfo(float).eps * (0.6 - 1e-8) / 1e-8, rel=1e-6)
        verdict = classify(rho)
        assert (verdict.verdict, verdict.decided_by) == (CLASSICAL, "local-both-nondegenerate")

    @pytest.mark.parametrize("ratio", [0.5, 2.0])
    def test_overlap_decides_only_beyond_the_error_bound(self, ratio):
        """Eigenvectors |0>|0>, |1>|0>, |a>|1>, |a'>|1> with |<1|a>| = s and a smallest gap of 2 tol.deg:
        s is a true overlap, yet it decides only when it lies beyond d eps ||rho|| / gap."""
        gap = 2 * DEFAULT_TOLERANCES.deg
        values = (0.1, 0.1 + gap, 0.3, 0.5 - gap)
        bound = 4 * np.finfo(float).eps * values[-1] / gap
        s = ratio * bound
        c = np.sqrt(1 - s * s)
        parts = [([1, 0], [1, 0]), ([0, 1], [1, 0]), ([c, s], [0, 1]), ([-s, c], [0, 1])]
        rho = DensityMatrix(sum(v * projector(np.kron(a, b)) for v, (a, b) in zip(values, parts)), (2, 2))
        out = detect_nondegenerate_global(rho)
        if ratio < 1:
            assert out.outcome == "inconclusive"
            assert out.witness == pytest.approx(bound, rel=1e-6)
            assert f"error bound {out.witness:.3g}" in out.detail
        else:
            assert out.outcome == "nonclassical"
            assert out.witness == pytest.approx(s, rel=1e-6)

    def test_rank_deficient_product_checks_inconclusive(self):
        """Product eigenvectors but too few of them to certify a basis."""
        weights = np.array([[0.6, 0.0], [0.0, 0.4]])
        rho = conditional_state(weights, np.eye(2), np.eye(2))
        out = detect_nondegenerate_global(rho)
        assert out.outcome == "inconclusive"
        assert "rank-deficient" in out.detail

    def test_no_eigenvalue_above_the_zero_tolerance_not_applicable(self):
        """At zero=1 every eigenvalue counts as zero, so no eigenvector is left to inspect."""
        out = detect_nondegenerate_global(sigma(), replace(DEFAULT_TOLERANCES, zero=1.0))
        assert (out.outcome, out.witness, out.detail) == ("not-applicable", 0.0, "no eigenvalue exceeds tol.zero")


def _entangled_late_state(dims, seed):
    """A random classical state whose eigenvectors are products except one
    pair, rotated into (e1 +- e2)/sqrt 2 over two product vectors that differ
    on both sides: the largest weight's and the largest off its row and
    column. The smallest weight is neither, so the first nonzero eigenvector
    is a product and a later one is entangled."""
    sample = random_classical(dims, seed=seed)
    weights = sample.weights
    a1, b1 = np.unravel_index(weights.argmax(), weights.shape)
    off = np.delete(np.delete(weights, a1, axis=0), b1, axis=1)
    a2, b2 = np.argwhere(weights == off.max())[0]
    assert weights.min() < off.max()
    e1 = np.kron(sample.basis_a[:, a1], sample.basis_b[:, b1])
    e2 = np.kron(sample.basis_a[:, a2], sample.basis_b[:, b2])
    w1, w2 = sample.weights[a1, b1], sample.weights[a2, b2]
    mat = sample.state.mat - w1 * projector(e1) - w2 * projector(e2)
    mat += w1 * projector((e1 + e2) / np.sqrt(2)) + w2 * projector((e1 - e2) / np.sqrt(2))
    return DensityMatrix(mat, dims)


def _global_cases():
    yield sigma()
    yield from (_entangled_late_state(dims, seed) for dims, seed in [((2, 2), 0), ((3, 4), 1), ((12, 12), 2)])
    for dA, dB in product(range(1, 5), repeat=2):
        for seed in range(8):
            yield random_classical((dA, dB), seed=seed).state
            yield random_density((dA, dB), seed=seed)
    yield from (random_classical((12, 12), seed=seed).state for seed in range(4))
    yield random_classical((20, 20), seed=1).state


def test_stacked_schmidt_test_equals_the_per_vector_loop(monkeypatch):
    """The stacked SVDs of the global test give the outcome of
    oracles.per_vector_schmidt_forms bit for bit: outcome, detail, witness,
    bases and weights."""
    import ncorr.detect

    cases = list(_global_cases())
    stacked = [detect_nondegenerate_global(rho) for rho in cases]
    monkeypatch.setattr(ncorr.detect, "_schmidt_forms", oracles.per_vector_schmidt_forms)
    outcomes = set()
    for rho, got in zip(cases, stacked):
        want = detect_nondegenerate_global(rho)
        assert (got.outcome, got.detail, got.witness.hex()) == (want.outcome, want.detail, want.witness.hex())
        for name in ("basis_a", "basis_b", "weights"):
            g, w = getattr(got, name), getattr(want, name)
            assert (g is None and w is None) or g.tobytes() == w.tobytes()
        outcomes.add((got.outcome, "Schmidt rank" in got.detail))
    assert {("classical", False), ("nonclassical", True)} <= outcomes
    late = [detect_nondegenerate_global(rho) for rho in cases[1:4]]
    assert all(o.outcome == "nonclassical" and "Schmidt rank 2" in o.detail for o in late)


def test_svd_stacks_start_with_one_column(monkeypatch):
    """The first eigenvector's SVD runs alone, so an entangled one ends the test after one small
    call; the rest go in stacks of _STACK_ENTRIES // d = 20 columns at d = 400."""
    entangled = random_density((12, 12), seed=0)
    classical = random_classical((20, 20), seed=1).state
    assert entangled.eig and classical.eig  # eigh before counting
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert detect_nondegenerate_global(entangled).outcome == "nonclassical"
    assert shapes == [(1, 12, 12)]
    shapes.clear()
    assert detect_nondegenerate_global(classical).outcome == "classical"
    assert shapes == [(1, 20, 20)] + [(20, 20, 20)] * 19 + [(19, 20, 20)]


class TestLocalBothNondegenerate:
    def test_pure_entangled_fails_diagonalization(self):
        out = detect_local_both_nondegenerate(phi_p(0.3))
        assert out.outcome == "nonclassical"

    def test_degenerate_reduction_not_applicable(self):
        out = detect_local_both_nondegenerate(varsigma())
        assert out.outcome == "not-applicable"

    @given(st.integers(0, 25))
    def test_classical_certified_when_applicable(self, seed):
        sample = random_classical((2, 2), seed=seed)
        out = detect_local_both_nondegenerate(sample.state)
        if out.outcome == "not-applicable":
            return  # a seed produced degenerate reduced spectra
        assert out.outcome == "classical"
        rebuilt = reconstruct(out.basis_a, out.basis_b, out.weights)
        assert np.abs(rebuilt - sample.state.mat).max() < 1e-8

    @pytest.mark.parametrize("residual, outcome", [(5e-8, "inconclusive"), (5e-7, "nonclassical")])
    def test_residual_decides_only_beyond_the_error_bound(self, residual, outcome):
        """Diagonal reduced states, so the local bases are exact, and a true off-diagonal residual.
        Side A's gap of 2 tol.deg puts the error bound at 1.25e-7 above tol.offdiag."""
        g = DEFAULT_TOLERANCES.deg
        mat = np.diag([0.35 + g, 0.15, 0.1, 0.4 - g]).astype(complex)
        mat[0, 3] = mat[3, 0] = residual / np.sqrt(2)
        out = detect_local_both_nondegenerate(DensityMatrix(mat, (2, 2)))
        assert out.outcome == outcome
        assert out.witness == pytest.approx(residual, rel=1e-12)


class TestLocalOneNondegenerate:
    def test_varsigma_decided(self):
        out = detect_local_one_nondegenerate(varsigma())
        assert out.outcome == "nonclassical"

    def test_needs_exactly_one_side(self):
        assert detect_local_one_nondegenerate(bell(2)).outcome == "not-applicable"
        assert detect_local_one_nondegenerate(phi_p(0.3)).outcome == "not-applicable"

    def test_commuting_blocks_certified(self):
        rho = commuting_blocks_state()
        out = detect_local_one_nondegenerate(rho)
        assert out.outcome == "classical"
        rebuilt = reconstruct(out.basis_a, out.basis_b, out.weights)
        assert np.abs(rebuilt - rho.mat).max() < 1e-8

    def test_noncommuting_blocks_decided(self):
        """Block-diagonal across a nondegenerate 3-dimensional B side whose
        conditional A blocks do not commute. Two blocks summing to a multiple
        of the identity always commute, hence the third block."""
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        b0 = np.diag([0.25, 0.05]).astype(complex)
        b1 = 0.10 * projector(plus) + 0.08 * projector(plus * [1, -1])
        b2 = np.eye(2) / 2 - b0 - b1
        mat = sum(np.kron(b, projector(np.eye(3)[:, k])) for k, b in enumerate((b0, b1, b2)))
        rho = DensityMatrix(mat, (2, 3))
        out = detect_local_one_nondegenerate(rho)
        assert out.outcome == "nonclassical"
        assert "do not commute" in out.detail

    def test_off_block_support_decided(self):
        """Not block-diagonal across the nondegenerate side's eigenbasis."""
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        block0 = np.diag([0.30, 0.20]).astype(complex)
        block1 = 0.35 * projector(plus) + 0.15 * projector(plus * [1, -1])
        mat = np.kron(block0, projector(np.array([1.0, 0.0]))) + np.kron(
            block1, projector(np.array([0.0, 1.0]))
        )
        rho = DensityMatrix(mat, (2, 2))
        out = detect_local_one_nondegenerate(rho)
        assert out.outcome == "nonclassical"
        assert "not block-diagonal" in out.detail

    def test_blocks_without_a_joint_eigenbasis_stay_inconclusive(self):
        """Conditional A blocks I/2 + X_j over B's basis, with X_0 = 5e-5 Z and X_1 = 5e-5 X.
        Their commutators sit below tol.comm, yet no basis diagonalizes Z and X at once, so the
        joint-eigenbasis step fails; the global detector still decides the state."""
        z = np.diag([1.0, -1.0]).astype(complex)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        w = (0.2, 0.3, 0.5)
        xs = [5e-5 * z, 5e-5 * x]
        xs.append(-(w[0] * xs[0] + w[1] * xs[1]) / w[2])
        blocks = [wj * (np.eye(2) / 2 + xj) for wj, xj in zip(w, xs)]
        mat = sum(np.kron(b, projector(np.eye(3)[:, j])) for j, b in enumerate(blocks))
        rho = DensityMatrix(mat, (2, 3))
        out = detect_local_one_nondegenerate(rho)
        assert out.outcome == "inconclusive"
        assert "failed to jointly diagonalize" in out.detail
        assert out.witness == pytest.approx(4.24e-10, rel=1e-2)
        verdict = classify(rho)
        assert (verdict.verdict, verdict.decided_by) == (NONCLASSICAL, "global-nondegenerate")
        _, residual = _in_product_basis(x, _joint_eigenbasis(np.stack([z, x])), np.eye(1))
        assert residual > DEFAULT_TOLERANCES.offdiag


class TestNecessaryConditions:
    def test_commutator_on_varsigma(self):
        out = detect_commutator(varsigma())
        assert out.outcome == "nonclassical"

    @pytest.mark.parametrize("n", [2, 3])
    def test_commutator_blind_to_maximally_entangled(self, n):
        """Maximally entangled states commute with both reduced states."""
        out = detect_commutator(bell(n))
        assert out.outcome == "inconclusive"
        assert out.witness < 1e-10

    def test_npt_on_entangled(self):
        out = detect_npt(tau())
        assert out.outcome == "nonclassical"
        assert out.witness == pytest.approx(-1 / 6, abs=1e-9)
        assert detect_npt(phi_p(0.5)).witness == pytest.approx(-0.5, abs=1e-9)

    def test_npt_on_separable(self):
        assert detect_npt(sigma()).outcome == "inconclusive"


def commutator_bounds(rho):
    """Per side, the largest gap allowed between detect_commutator's witness and the Kronecker oracle's.

    Both compute ||K rho - rho K||_F, K = rho_A (x) 1 or 1 (x) rho_B, from the
    same K. Each product sums at most d terms, so it is off by at most about
    d eps |K| |rho| entrywise, d eps ||K||_F ||rho||_F in Frobenius norm. The
    difference, the norm's sum of d^2 squares and its square root add at most
    (d + 2) eps of the witness, which is at most 2 ||K||_F ||rho||_F. So each
    evaluation is within (4d + 4) eps ||K||_F ||rho||_F of the exact norm, and
    the two within twice that. ||rho_A (x) 1||_F = sqrt(dB) ||rho_A||_F.
    """
    dims, fro = rho.dims, np.linalg.norm(rho.mat)
    k_norms = (
        np.sqrt(dims.dB) * np.linalg.norm(rho.reduced["A"]),
        np.sqrt(dims.dA) * np.linalg.norm(rho.reduced["B"]),
    )
    return tuple(8 * (dims.total + 1) * np.finfo(float).eps * k * fro for k in k_norms)


def commutator_cases(dA, dB, seed):
    """A random state, a classical one, that classical state moved along a random
    traceless Hermitian direction until its witness is 0.5, 0.99, 1.01 and 2
    times tol.comm, and it plus a real antisymmetric part that leaves
    |m - m^dag| at 0.9 tol.herm, which validation accepts."""
    tol, dims, d = DEFAULT_TOLERANCES, (dA, dB), dA * dB
    rng = np.random.default_rng(seed)
    mat = random_classical(dims, seed).state.mat
    cases = [random_density(dims, seed=seed), DensityMatrix(mat, dims)]
    if min(dims) > 1:  # else every state commutes with both reduced states
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (z + z.conj().T) / 2
        h -= np.trace(h).real / d * np.eye(d)
        h /= np.linalg.norm(h, 2)
        w = max(oracles.kron_commutator_norms(DensityMatrix(mat + 1e-6 * h, dims)))  # about linear in the step
        cases += [DensityMatrix(mat + f * tol.comm * 1e-6 / w * h, dims) for f in (0.5, 0.99, 1.01, 2.0)]
    if d > 1:
        a = rng.standard_normal((d, d))
        a -= a.T
        cases.append(DensityMatrix(mat + 0.45 * tol.herm / np.abs(a).max() * a, dims))
    return cases


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**16))
def test_commutator_matches_kron_oracle(dA, dB, seed):
    """The block-view commutator agrees with the d x d Kronecker form (tests/oracles.py)
    within commutator_bounds; where the gap to tol.comm, or between the two sides,
    is beyond that bound, the outcome and the side it names agree too."""
    tol = DEFAULT_TOLERANCES
    for rho in commutator_cases(dA, dB, seed):
        out = detect_commutator(rho)
        ca, cb = oracles.kron_commutator_norms(rho)
        ba, bb = commutator_bounds(rho)
        assert abs(out.witness - max(ca, cb)) <= max(ba, bb)
        if abs(max(ca, cb) - tol.comm) > max(ba, bb):
            assert out.outcome == ("nonclassical" if max(ca, cb) > tol.comm else "inconclusive")
        if out.outcome == "nonclassical" and abs(ca - cb) > ba + bb:
            assert out.detail.endswith(f"reduced state {'A' if ca > cb else 'B'} (x) identity")


def product_basis_bound(rho):
    """The largest gap allowed between _in_product_basis and the Kronecker oracle, per weight and in the residual.

    Both rotate rho by orthonormal bases, which keep Frobenius norms. A product whose sums have n
    terms is off by at most about n eps ||X||_F ||Y||_F, and an orthonormal n x n factor has
    ||X||_F = sqrt(n). So the oracle's two products of d terms, and the library's four of dA or dB,
    each leave U^dag rho U within about 2 d^1.5 eps ||rho||_F of exact, and a weight, the residual
    and its norm's own rounding within (4d + 4) sqrt(d) eps ||rho||_F. The bound is twice that.
    """
    d = rho.dims.total
    return 8 * (d + 1) * np.sqrt(d) * np.finfo(float).eps * np.linalg.norm(rho.mat)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**16))
def test_product_basis_certificate_matches_kron_oracle(dA, dB, seed):
    """The mode-product rotation agrees with the d x d Kronecker form (tests/oracles.py) within
    product_basis_bound, weight by weight and in the residual: in the reduced eigenbases, which
    local-both certifies, in a classical state's own product basis, and in Haar-random bases,
    including ones that drop a column on each side."""
    rng = np.random.default_rng(seed)
    sample = random_classical((dA, dB), seed=seed)
    for rho in (random_density((dA, dB), seed=seed), sample.state):
        bases = [
            (rho.reduced_eig["A"].vectors, rho.reduced_eig["B"].vectors),
            (haar_unitary(dA, rng), haar_unitary(dB, rng)),
            (haar_unitary(dA, rng)[:, : max(1, dA - 1)], haar_unitary(dB, rng)[:, : max(1, dB - 1)]),
        ]
        if rho is sample.state:
            bases.append((sample.basis_a, sample.basis_b))
        for basis_a, basis_b in bases:
            weights, residual = _in_product_basis(rho.mat, basis_a, basis_b)
            kron_weights, kron_residual = oracles.kron_product_basis(rho.mat, basis_a, basis_b)
            assert weights.shape == kron_weights.shape
            assert np.abs(weights - kron_weights).max() <= product_basis_bound(rho)
            assert abs(residual - kron_residual) <= product_basis_bound(rho)


class TestClassify:
    def test_sigma_decided_by_global_test(self):
        verdict = classify(sigma())
        assert verdict.verdict == NONCLASSICAL
        assert verdict.decided_by == "global-nondegenerate"

    def test_varsigma_decided_by_one_sided_test(self):
        verdict = classify(varsigma())
        assert verdict.verdict == NONCLASSICAL
        assert verdict.decided_by == "local-one-nondegenerate"

    def test_tau_decided_by_npt_with_zero_measure_noted(self):
        verdict = classify(tau())
        assert verdict.verdict == NONCLASSICAL
        assert verdict.decided_by == "npt"
        trail = {o.test: o for o in verdict.evidence}
        assert trail["measure-witness"].outcome == "inconclusive"
        assert trail["measure-witness"].witness <= 1e-7

    def test_measure_witness_fallback(self):
        """Degenerate everywhere, PPT undetermined, but the measure is 1/2."""
        verdict = classify(kappa(0.5, 0.0, 0.5))
        assert verdict.verdict == NONCLASSICAL
        assert verdict.decided_by == "measure-witness"

    def test_maximally_mixed_stays_unknown(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        verdict = classify(rho)
        assert verdict.verdict == UNKNOWN
        assert verdict.decided_by is None
        assert len(verdict.applied) == 6

    def test_evidence_covers_every_test(self):
        verdict = classify(sigma())
        assert verdict.applied == (
            "global-nondegenerate",
            "local-both-nondegenerate",
            "local-one-nondegenerate",
            "commutator",
            "npt",
            "measure-witness",
        )
        assert len(verdict.evidence) == 6

    @given(st.integers(0, 25))
    def test_classical_states_never_flagged(self, seed):
        sample = random_classical((2, 2), seed=seed)
        verdict = classify(sample.state)
        assert verdict.verdict != NONCLASSICAL

    @pytest.mark.parametrize(
        "name, params, decided_by",
        [
            ("varsigma", {}, "local-one-nondegenerate"),
            ("sigma", {}, "global-nondegenerate"),
            ("sigma_prime", {}, "measure-witness"),
            ("sigma_dprime", {}, "measure-witness"),
            ("tau", {}, "npt"),
            ("zeta", {}, "commutator"),
            ("zeta_prime", {}, "commutator"),
            ("xi", {}, "commutator"),
            ("xi_prime", {}, "measure-witness"),
            ("bell", {"N": 2}, "global-nondegenerate"),
            ("bell", {"N": 4}, "global-nondegenerate"),
            ("phi_p", {"p": 0.25}, "global-nondegenerate"),
        ],
    )
    def test_catalog_verdicts(self, name, params, decided_by):
        """The rows of scripts/reproduce_catalog.py: every one is NONCLASSICAL, each by its own detector."""
        verdict = classify(build(StateSpec(name, params)))
        assert (verdict.verdict, verdict.decided_by) == (NONCLASSICAL, decided_by)

    def test_classical_verdict_carries_witness_basis(self):
        sample = random_classical((2, 3), seed=1)
        verdict = classify(sample.state)
        assert verdict.verdict == CLASSICAL
        rebuilt = reconstruct(verdict.basis_a, verdict.basis_b, verdict.weights)
        assert np.abs(rebuilt - sample.state.mat).max() < 1e-8


def _nondegenerate(values) -> bool:
    return len(values) < 2 or np.diff(values).min() > DEFAULT_TOLERANCES.deg


@pytest.mark.parametrize(
    "rho",
    [
        random_classical((2, 3), seed=1).state,
        random_classical((3, 3), seed=2).state,
        commuting_blocks_state(),
        conditional_state(np.array([[0.1, 0.2, 0.05], [0.1, 0.2, 0.05], [0.05, 0.2, 0.05]]), np.eye(3), np.eye(3)),
    ],
    ids=["random-2x3", "random-3x3", "commuting-blocks", "one-degenerate-side"],
)
def test_classical_witness_convention(rho):
    """A classical outcome of global or local-both reports the certificate's residual for the bases it
    returns; local-one's reports the largest ||[B_i, B_j]||_F over its conditional blocks."""
    certified = [o for o in classify(rho).evidence if o.outcome == "classical"]
    assert certified
    for out in certified:
        if out.test == "local-one-nondegenerate":
            side = "B" if _nondegenerate(rho.reduced_eig["B"].values) else "A"
            blocks = _conditional_blocks(rho, out.basis_b if side == "B" else out.basis_a, side)
            assert out.witness == max(float(np.linalg.norm(a @ b - b @ a)) for a, b in combinations(blocks, 2))
        else:
            assert out.witness == _in_product_basis(rho.mat, out.basis_a, out.basis_b)[1]


def _edge_states():
    yield from (build(StateSpec(name)) for name in CATALOG_NAMES[:9])  # the parameterless ones
    yield from (bell(2), phi_p(0.3), kappa(0, 0, 0))
    for dims in product(range(1, 4), repeat=2):
        yield from (random_density(dims, seed=1), random_density(dims, rank=1, seed=1))
        yield random_classical(dims, seed=1).state


def _trail(verdict):
    """Everything classify reports, with each witness as its exact bits."""
    outcomes = [(o.test, o.outcome, o.detail, float(o.witness).hex()) for o in verdict.evidence]
    bases = [b if b is None else b.tobytes() for b in (verdict.basis_a, verdict.basis_b, verdict.weights)]
    return verdict.verdict, verdict.decided_by, outcomes, bases


@pytest.mark.parametrize("field", [f.name for f in fields(Tolerances)])
def test_every_tolerance_edge_returns_and_serializes(field):
    """Each field at 0, the smallest subnormal, 1e-16, 0.5, 1 and 1e300: classify and
    truncation_measure return, and the CLI's measure and detection sections serialize."""
    for value in (0.0, 5e-324, 1e-16, 0.5, 1.0, 1e300):
        tol = replace(DEFAULT_TOLERANCES, **{field: value})
        for rho in _edge_states():
            sections = {"measure": _measure_section(truncation_measure(rho, tol))}
            sections["detection"] = _detection_section(classify(rho, tol))
            assert dumps(sections)


def test_classify_does_not_read_the_trace_tolerance():
    """eigh's eigenvectors are unit only to rounding, and the Schmidt test checks no norm:
    trace = 0 leaves every trail as it is."""
    strict = replace(DEFAULT_TOLERANCES, trace=0.0)
    for rho in (*_edge_states(), *list(_global_cases())[:-5]):  # all but the 12x12 and 20x20 classical states
        assert _trail(classify(rho, strict)) == _trail(classify(rho))


_KAPPA_LEVELS = (-0.3, -0.15, 0.0, 0.15, 0.3)
_EXACT_CATALOG = (
    [StateSpec(name) for name in ("varsigma", "sigma", "sigma_prime", "sigma_dprime", "tau", "zeta", "zeta_prime")]
    + [StateSpec(name) for name in ("xi", "xi_prime", "kappa")]
    + [StateSpec("bell", {"N": n}) for n in (2, 3, 4)]
    + [StateSpec("phi_p", {"p": p}) for p in (0, 0.25, 0.5, 1)]
    + [
        StateSpec("kappa", {"c_x": x, "c_y": y, "c_z": z})
        for x in _KAPPA_LEVELS
        for y in _KAPPA_LEVELS
        for z in _KAPPA_LEVELS
    ]
)


def _verdict_and_truth(rho) -> tuple[str, bool]:
    """classify's verdict, and whether the state is exactly classical (tests/oracles.py)."""
    return classify(rho).verdict, oracles.exact_classical(rho.mat, (rho.dims.dA, rho.dims.dB))


def test_catalog_verdicts_agree_with_the_exact_oracle():
    """The nine fixed catalog states, default kappa, bell 2-4, phi_p at 0, 1/4, 1/2 and 1, and the
    125-point kappa grid, all built exactly: no verdict contradicts the exact oracle, and every
    UNKNOWN state is exactly classical."""
    assert len(_EXACT_CATALOG) == 142
    failures = {}
    for spec in _EXACT_CATALOG:
        verdict, exact = _verdict_and_truth(build(spec))
        if verdict == (NONCLASSICAL if exact else CLASSICAL) or (verdict == UNKNOWN and not exact):
            failures[f"{spec.name} {dict(spec.params)}"] = (verdict, exact)
    assert failures == {}


def _exact_projectors(n: int, order: list, phases: list) -> list:
    """Rank-one projectors onto an orthonormal basis of C^n with every entry in {0, +-1/2, +-i/2, 1}: the
    computational basis in the given order, with each consecutive pair (a, b) whose phase p is nonzero
    replaced by (|a> + p|b>)/sqrt(2) and (|a> - p|b>)/sqrt(2), built entry by entry so that they are exact."""
    e = np.eye(n, dtype=complex)
    projectors = [np.outer(e[i], e[i]) for i in order]
    for k, phase in zip(range(0, n - 1, 2), phases):
        if phase:
            a, b = order[k], order[k + 1]
            half = (np.outer(e[a], e[a]) + np.outer(e[b], e[b])) / 2
            cross = phase / 2 * np.outer(e[b], e[a])
            cross += cross.conj().T
            projectors[k], projectors[k + 1] = half + cross, half - cross
    return projectors


@st.composite
def _exact_binary_states(draw):
    """A state exact in binary: sum_jk w_jk P_j (x) Q_k over two exact local bases, with integer weights
    over a power-of-two total, so classical by construction; or that sum plus a Bell-pair projector
    on |00>, |11> or a |0>|+> term, which may make it nonclassical."""
    dims = draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))
    phases = st.sampled_from([0, 1, 1j])
    sides = [
        _exact_projectors(n, draw(st.permutations(range(n))), draw(st.lists(phases, min_size=n // 2, max_size=n // 2)))
        for n in dims
    ]
    weights = draw(st.lists(st.integers(0, 3), min_size=dims[0] * dims[1], max_size=dims[0] * dims[1]))
    extra = draw(st.sampled_from(["none", "bell", "zero-plus"] if min(dims) > 1 else ["none"]))
    extra_weight = 0 if extra == "none" else draw(st.integers(1, 3))
    total = sum(weights) + extra_weight
    weights[0] += 2 ** max(total - 1, 0).bit_length() - total  # the total becomes a power of two
    mat = sum(w * np.kron(p, q) for w, (p, q) in zip(weights, product(*sides)))
    d, dB = dims[0] * dims[1], dims[1]
    if extra == "bell":
        corners = np.ix_([0, dB + 1], [0, dB + 1])
        term = np.zeros((d, d), dtype=complex)
        term[corners] = 0.5
        mat = mat + extra_weight * term
    elif extra == "zero-plus":
        plus = np.zeros((dB, dB), dtype=complex)
        plus[:2, :2] = 0.5
        mat = mat + extra_weight * np.kron(np.diag(np.eye(dims[0])[0]).astype(complex), plus)
    return DensityMatrix(mat / (sum(weights) + extra_weight), dims), extra


@given(_exact_binary_states())
def test_classify_never_contradicts_the_exact_oracle(case):
    rho, extra = case
    verdict, exact = _verdict_and_truth(rho)
    if extra == "none":
        assert exact
    assert verdict != (NONCLASSICAL if exact else CLASSICAL)
