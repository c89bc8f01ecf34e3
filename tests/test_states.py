"""State catalog: fixed states, parametric families, seeded random generators."""
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ncorr import (
    CATALOG_NAMES,
    BipartiteDims,
    DensityMatrix,
    DomainError,
    MalformedInputError,
    StateSpec,
    apply_local_unitaries,
    bell,
    build,
    haar_unitary,
    kappa,
    kappa_eigenvalues,
    ket,
    phi_p,
    plus_ket,
    projector,
    random_classical,
    random_density,
    random_local_unitary,
    sigma,
    sigma_dprime,
    sigma_prime,
    tau,
    tensor_product,
    varsigma,
    xi,
    xi_prime,
    zeta,
    zeta_prime,
)
from ncorr.io import state_file_text

FIXED_BUILDERS = {
    "varsigma": varsigma,
    "sigma": sigma,
    "sigma_prime": sigma_prime,
    "sigma_dprime": sigma_dprime,
    "tau": tau,
    "zeta": zeta,
    "zeta_prime": zeta_prime,
    "xi": xi,
    "xi_prime": xi_prime,
}


def test_kets():
    assert_allclose(ket(1, 3), [0, 1, 0])
    assert_allclose(plus_ket(4), [1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0])
    v = np.array([0.6, 0.8j])
    assert_allclose(projector(v), np.outer(v, v.conj()))


@pytest.mark.parametrize("name", sorted(FIXED_BUILDERS))
def test_fixed_states_are_valid(name):
    rho = FIXED_BUILDERS[name]()
    assert abs(rho.mat.trace() - 1) < 1e-12
    assert np.abs(rho.mat - rho.mat.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(rho.mat)[0] > -1e-12


def test_varsigma_corner_entry():
    assert varsigma().mat[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_sigma_spectrum():
    assert_allclose(np.linalg.eigvalsh(sigma().mat), [0, 1 / 6, 1 / 3, 1 / 2], atol=1e-12)


def test_tau_spectrum():
    want = [0] * 6 + [1 / 3] * 3
    assert_allclose(np.linalg.eigvalsh(tau().mat), want, atol=1e-12)


def test_zeta_spectrum_and_dims():
    z = zeta()
    assert z.dims == BipartiteDims(4, 4)
    assert_allclose(np.linalg.eigvalsh(z.mat), [0] * 12 + [0.25] * 4, atol=1e-12)


def test_xi_is_a_doubled_copy():
    """Entrywise product structure across the combined-sides ordering."""
    s = sigma().mat
    big = xi()
    assert big.dims == BipartiteDims(4, 4)
    for a, b, c, d, a2, b2, c2, d2 in np.ndindex(2, 2, 2, 2, 2, 2, 2, 2):
        row = (a * 2 + c) * 4 + (b * 2 + d)
        col = (a2 * 2 + c2) * 4 + (b2 * 2 + d2)
        want = s[a * 2 + b, a2 * 2 + b2] * s[c * 2 + d, c2 * 2 + d2]
        assert big.mat[row, col] == want


def test_xi_prime_matches_tensor_product():
    direct = tensor_product(sigma_dprime(), sigma_dprime())
    assert np.array_equal(xi_prime().mat, direct.mat)


class TestBellFamily:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_projector_onto_uniform_diagonal(self, n):
        rho = bell(n)
        vec = np.zeros(n * n)
        vec[:: n + 1] = 1 / math.sqrt(n)
        assert_allclose(rho.mat, np.outer(vec, vec), atol=1e-14)

    def test_rejects_small_n(self):
        with pytest.raises(DomainError, match="n >= 2"):
            bell(1)

    @pytest.mark.parametrize("n", [2.5, True, "3"])
    def test_rejects_non_integer_n(self, n):
        """Read like the CLI's N, so numpy never sees a non-integer size."""
        with pytest.raises(MalformedInputError, match="n must be an integer"):
            bell(n)

    def test_integral_float_n(self):
        assert np.array_equal(bell(2.0).mat, bell(2).mat)


class TestPhiFamily:
    def test_endpoints_are_products(self):
        assert phi_p(0.0).mat[3, 3] == pytest.approx(1.0)
        assert phi_p(1.0).mat[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(DomainError, match="lie in"):
            phi_p(p)


class TestBellDiagonalFamily:
    def test_diagonal_in_the_fixed_basis(self):
        """The four Bell vectors, ordered to match kappa_eigenvalues, diagonalize kappa."""
        k0, k1 = ket(0, 2), ket(1, 2)
        basis = np.column_stack(
            [
                (np.kron(k0, k1) - np.kron(k1, k0)) / math.sqrt(2),
                (np.kron(k0, k0) - np.kron(k1, k1)) / math.sqrt(2),
                (np.kron(k0, k0) + np.kron(k1, k1)) / math.sqrt(2),
                (np.kron(k0, k1) + np.kron(k1, k0)) / math.sqrt(2),
            ]
        )
        assert_allclose(basis.conj().T @ basis, np.eye(4), atol=1e-12)
        rho = kappa(0.3, 0.2, 0.1)
        rotated = basis.conj().T @ rho.mat @ basis
        off = rotated - np.diag(np.diagonal(rotated))
        assert np.abs(off).max() < 1e-12
        assert_allclose(np.diagonal(rotated).real, kappa_eigenvalues(0.3, 0.2, 0.1), atol=1e-12)

    @given(
        st.floats(-0.4, 0.4),
        st.floats(-0.4, 0.4),
        st.floats(-0.2, 0.2),
    )
    def test_closed_form_spectrum(self, cx, cy, cz):
        got = np.sort(np.linalg.eigvalsh(kappa(cx, cy, cz).mat))
        want = np.sort(kappa_eigenvalues(cx, cy, cz))
        assert_allclose(got, want, atol=1e-12)

    def test_rejects_negative_spectrum(self):
        with pytest.raises(DomainError, match="negative eigenvalue"):
            kappa(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("coefficients", [(math.inf, 0, 0), (1e308, 1e308, 0)])
    def test_rejects_out_of_range_coefficients_before_building_the_matrix(self, coefficients):
        """inf and 1e308 would overflow the matrix; numpy's warnings are errors under this suite."""
        with pytest.raises(DomainError, match="negative eigenvalue"):
            kappa(*coefficients)

    def test_pure_corner_case(self):
        """c = (1, -1, 1) is a maximally entangled vector, not a mixture."""
        rho = kappa(1.0, -1.0, 1.0)
        assert_allclose(np.linalg.eigvalsh(rho.mat), [0, 0, 0, 1], atol=1e-12)


class TestRandomGenerators:
    def test_haar_unitary_is_unitary(self):
        u = haar_unitary(5, np.random.default_rng(3))
        assert np.abs(u.conj().T @ u - np.eye(5)).max() < 1e-10

    def test_haar_unitary_seeded(self):
        a = haar_unitary(3, np.random.default_rng(9))
        b = haar_unitary(3, np.random.default_rng(9))
        c = haar_unitary(3, np.random.default_rng(10))
        assert np.array_equal(a, b)
        assert not np.allclose(a, c)

    def test_random_local_unitary_shapes(self):
        ua, ub = random_local_unitary((2, 3), seed=4)
        assert ua.shape == (2, 2)
        assert ub.shape == (3, 3)
        assert np.abs(ua.conj().T @ ua - np.eye(2)).max() < 1e-10
        assert np.abs(ub.conj().T @ ub - np.eye(3)).max() < 1e-10

    @given(st.integers(0, 30), st.integers(1, 6))
    def test_random_density_rank(self, seed, rank):
        rho = random_density((2, 3), rank=rank, seed=seed)
        values = np.linalg.eigvalsh(rho.mat)
        assert int((values > 1e-10).sum()) == rank

    def test_random_density_rejects_bad_rank(self):
        with pytest.raises(DomainError, match="rank must lie"):
            random_density((2, 2), rank=0)
        with pytest.raises(DomainError, match="rank must lie"):
            random_density((2, 2), rank=5)

    @pytest.mark.parametrize("rank", [2.7, math.nan, True])
    def test_random_density_rejects_non_integral_rank(self, rank):
        """A fractional, NaN or bool rank is an error, never truncated to an int."""
        with pytest.raises(MalformedInputError, match="rank must be an integer"):
            random_density((2, 2), rank=rank, seed=1)

    def test_random_density_accepts_integral_float_rank(self):
        assert np.array_equal(random_density((2, 2), rank=2.0, seed=1).mat, random_density((2, 2), rank=2, seed=1).mat)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_density((2, 2), seed=-1),
            lambda: random_density((2, 2), seed=[3, 2, -1]),
            lambda: random_classical((2, 2), seed=-1),
            lambda: random_local_unitary((2, 2), seed=-1),
            lambda: zeta_prime(seed_a=-3),
            lambda: zeta_prime(seed_b=-1),
        ],
    )
    def test_negative_seed_is_a_domain_error(self, make):
        with pytest.raises(DomainError, match="seed must be a nonnegative integer"):
            make()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_density((2, 2), seed=1.5),
            lambda: random_density((2, 2), seed=True),
            lambda: random_classical((2, 2), seed=True),
            lambda: random_local_unitary((2, 2), seed=2.0),
            lambda: zeta_prime(seed_a=False),
            lambda: random_density((2, 2), seed=[True, 2]),
            lambda: random_classical((2, 2), seed=(0, False)),
            lambda: random_local_unitary((2, 2), seed=[[1, True]]),
        ],
    )
    def test_non_integer_or_bool_seed_is_a_domain_error(self, make):
        """A float seed is numpy's TypeError, and a bool, bare or inside a
        sequence, would pass as 0 or 1."""
        with pytest.raises(DomainError, match="seed must be a nonnegative integer"):
            make()

    def test_sequence_seeds_still_work(self):
        """run_bench seeds its states with [seed, n, trial]."""
        a = random_density((2, 2), seed=[0, 2, 1])
        assert np.array_equal(a.mat, random_density((2, 2), seed=[0, 2, 1]).mat)
        assert not np.array_equal(a.mat, random_density((2, 2), seed=[0, 2, 0]).mat)

    def test_random_density_seed_determinism(self):
        a = random_density((2, 2), seed=17)
        b = random_density((2, 2), seed=17)
        assert np.array_equal(a.mat, b.mat)

    @given(st.integers(0, 30))
    def test_random_classical_witness(self, seed):
        """The returned basis diagonalizes the state with the returned weights."""
        sample = random_classical((2, 3), seed=seed)
        u = np.kron(sample.basis_a, sample.basis_b)
        rotated = u.conj().T @ sample.state.mat @ u
        off = rotated - np.diag(np.diagonal(rotated))
        assert np.abs(off).max() < 1e-10
        assert_allclose(np.diagonal(rotated).real, sample.weights.reshape(-1), atol=1e-10)
        assert sample.weights.sum() == pytest.approx(1.0, abs=1e-10)


class TestLocalUnitaries:
    def test_apply_local_unitaries_preserves_spectrum(self):
        rho = varsigma()
        ua, ub = random_local_unitary((2, 2), seed=21)
        rotated = apply_local_unitaries(rho, ua, ub)
        assert_allclose(
            np.linalg.eigvalsh(rotated.mat), np.linalg.eigvalsh(rho.mat), atol=1e-12
        )

    def test_zeta_prime_keeps_all_spectra(self):
        from ncorr import partial_trace

        base = zeta()
        rotated = zeta_prime(seed_a=5, seed_b=8)
        assert_allclose(np.linalg.eigvalsh(rotated.mat), np.linalg.eigvalsh(base.mat), atol=1e-10)
        for keep in ("A", "B"):
            got = np.linalg.eigvalsh(partial_trace(rotated.mat, rotated.dims, keep))
            want = np.linalg.eigvalsh(partial_trace(base.mat, base.dims, keep))
            assert_allclose(got, want, atol=1e-10)

    def test_zeta_prime_differs_from_zeta_entrywise(self):
        assert not np.allclose(zeta_prime().mat, zeta().mat)


class TestBuildDispatch:
    def test_catalog_is_complete(self):
        assert set(FIXED_BUILDERS) < set(CATALOG_NAMES)
        assert len(CATALOG_NAMES) == 14

    @pytest.mark.parametrize("name", sorted(FIXED_BUILDERS))
    def test_fixed_names_build(self, name):
        rho = build(StateSpec(name))
        assert np.array_equal(rho.mat, FIXED_BUILDERS[name]().mat)

    def test_fixed_names_keep_their_state_file_bits(self):
        """The sha256 of each fixed state's file, recorded before the builders
        were rewritten as one mixture each."""
        want = json.loads((Path(__file__).parent / "data" / "catalog_sha256.json").read_text())
        assert sorted(want) == sorted(FIXED_BUILDERS)
        got = {name: hashlib.sha256(state_file_text(build(StateSpec(name))).encode()).hexdigest() for name in want}
        assert got == want

    def test_parametric_names(self):
        assert build(StateSpec("bell", {"N": 3})).dims == BipartiteDims(3, 3)
        assert build(StateSpec("phi_p", {"p": 0.5})).mat[0, 0] == pytest.approx(0.5)
        assert build(StateSpec("kappa", {"c_x": 0.2})).dims == BipartiteDims(2, 2)
        got = build(StateSpec("random", {"dA": 2, "dB": 3, "seed": 11}))
        assert np.array_equal(got.mat, random_density((2, 3), seed=11).mat)
        got = build(StateSpec("random", {"dA": 2, "dB": 2, "rank": 2, "seed": 1}))
        assert int((np.linalg.eigvalsh(got.mat) > 1e-10).sum()) == 2
        got = build(StateSpec("random_classical", {"dA": 2, "dB": 2, "seed": 6}))
        assert np.array_equal(got.mat, random_classical((2, 2), seed=6).state.mat)

    def test_unknown_name_rejected(self):
        with pytest.raises(MalformedInputError, match="unknown state name"):
            build(StateSpec("nope"))

    def test_missing_required_parameter(self):
        with pytest.raises(MalformedInputError, match="missing required parameter"):
            build(StateSpec("phi_p"))

    @pytest.mark.parametrize(
        "name,key,value",
        [
            ("random", "dA", math.nan),
            ("random", "dB", 2.7),
            ("random", "seed", math.nan),
            ("random", "rank", 1.5),
            ("random_classical", "dA", math.inf),
            ("bell", "N", math.inf),
            ("bell", "N", "3"),
            ("zeta_prime", "seed_a", -math.inf),
            ("zeta_prime", "seed_b", 0.5),
            ("random", "dA", True),
        ],
    )
    def test_integer_parameters_must_be_integral(self, name, key, value):
        with pytest.raises(MalformedInputError, match=f"parameter '{key}' must be an integer"):
            build(StateSpec(name, {key: value}))

    def test_integral_floats_accepted_as_integers(self):
        got = build(StateSpec("random", {"dA": 3.0, "dB": 2.0, "seed": 4.0, "rank": 2.0}))
        assert np.array_equal(got.mat, random_density((3, 2), rank=2, seed=4).mat)
        assert build(StateSpec("bell", {"N": 3.0})).dims == BipartiteDims(3, 3)

    @pytest.mark.parametrize("name,key", [("phi_p", "p"), ("kappa", "c_x")])
    @pytest.mark.parametrize("value", [True, "0.5", None, [0.1]])
    def test_real_parameters_must_be_real_numbers(self, name, key, value):
        with pytest.raises(MalformedInputError, match=f"parameter '{key}' must be a real number, got "):
            build(StateSpec(name, {key: value}))

    def test_int_and_float_accepted_as_real_parameters(self):
        assert np.array_equal(build(StateSpec("phi_p", {"p": 1})).mat, phi_p(1.0).mat)
        assert np.array_equal(build(StateSpec("phi_p", {"p": 0.25})).mat, phi_p(0.25).mat)
        assert np.array_equal(build(StateSpec("kappa", {"c_x": 0, "c_z": 0.5})).mat, kappa(0.0, 0.0, 0.5).mat)

    @pytest.mark.parametrize(
        "name,params,keys",
        [
            ("kappa", {"c_w": 0.3}, "'c_w'"),
            ("bell", {"n": 5}, "'n'"),
            ("sigma", {"seed": 3}, "'seed'"),
            ("phi_p", {"p": 0.5, "q": 1, "N": 2}, "'N', 'q'"),
            ("random", {"dA": 2, "dims": 2}, "'dims'"),
        ],
    )
    def test_unread_parameters_rejected(self, name, params, keys):
        with pytest.raises(MalformedInputError, match=f"state '{name}' takes no parameter {keys}$"):
            build(StateSpec(name, params))

    def test_spec_params_left_as_given(self):
        params = {"dA": 2, "dB": 2, "seed": 3}
        build(StateSpec("random", params))
        assert params == {"dA": 2, "dB": 2, "seed": 3}

    def test_zeta_prime_seeds_forwarded(self):
        got = build(StateSpec("zeta_prime", {"seed_a": 3, "seed_b": 4}))
        assert np.array_equal(got.mat, zeta_prime(3, 4).mat)
