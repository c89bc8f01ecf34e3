"""Product-eigenbasis detection battery."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ncorr import (
    CLASSICAL,
    DEFAULT_TOLERANCES,
    NONCLASSICAL,
    UNKNOWN,
    DensityMatrix,
    StateSpec,
    bell,
    build,
    classify,
    detect_commutator,
    detect_local_both_nondegenerate,
    detect_local_one_nondegenerate,
    detect_nondegenerate_global,
    detect_npt,
    kappa,
    phi_p,
    projector,
    random_classical,
    sigma,
    tau,
    varsigma,
)
from ncorr.detect import _in_product_basis, _joint_eigenbasis


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
        """Degenerate A reduction, nondegenerate B reduction, diagonal blocks."""
        rng = np.random.default_rng(2)
        ub, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        weights = np.array([[0.30, 0.20], [0.35, 0.15]])  # equal row sums
        rho = conditional_state(weights, np.eye(2), ub)
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
