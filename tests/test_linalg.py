"""Bipartite linear algebra primitives."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ncorr import (
    BipartiteDims,
    DensityMatrix,
    MalformedInputError,
    bell,
    classify,
    partial_trace,
    partial_transpose,
    partition_measure,
    sigma,
    tau,
    tensor_product,
    truncation_measure,
    von_neumann_entropy,
)


def random_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (z + z.conj().T) / 2


def random_rho(dims, seed):
    rng = np.random.default_rng(seed)
    d = dims[0] * dims[1]
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mat = g @ g.conj().T
    return DensityMatrix(mat / mat.trace().real, BipartiteDims(*dims))


class TestBipartiteDims:
    def test_total(self):
        assert BipartiteDims(3, 4).total == 12

    @pytest.mark.parametrize("bad", [(0, 2), (2, 0), (-1, 3)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(MalformedInputError, match="must be >= 1"):
            BipartiteDims(*bad)

    @pytest.mark.parametrize("bad", [(2.5, 2), (2, 2.0), ("2", 2), (None, 2), (np.float64(2), 2), (True, 2)])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(MalformedInputError, match="must be integers"):
            BipartiteDims(*bad)

    def test_non_integer_dims_rejected_by_every_dims_argument(self):
        """(2.7, 2) used to be truncated to a 2x2 system."""
        for call in (
            lambda: partial_trace(np.eye(4) / 4, (2.7, 2)),
            lambda: partial_transpose(np.eye(4) / 4, (2, 2.0)),
            lambda: DensityMatrix(np.eye(4) / 4, (2.7, 2)),
        ):
            with pytest.raises(MalformedInputError, match="must be integers"):
                call()


class TestDensityMatrix:
    def test_accepts_valid(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        assert rho.dims == BipartiteDims(2, 2)
        assert rho.mat.dtype == np.complex128

    def test_rejects_shape_mismatch(self):
        with pytest.raises(MalformedInputError, match="does not match dims"):
            DensityMatrix(np.eye(4) / 4, (2, 3))

    def test_rejects_non_hermitian(self):
        mat = np.eye(4) / 4
        mat[0, 1] = 0.2
        with pytest.raises(MalformedInputError, match="not Hermitian"):
            DensityMatrix(mat, (2, 2))

    def test_rejects_wrong_trace(self):
        with pytest.raises(MalformedInputError, match="trace differs"):
            DensityMatrix(np.eye(4) / 2, (2, 2))

    def test_rejects_negative_eigenvalue(self):
        mat = np.diag([0.7, 0.5, -0.1, -0.1])
        with pytest.raises(MalformedInputError, match="not positive semidefinite"):
            DensityMatrix(mat, (2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite(self, bad, where):
        mat = np.eye(4, dtype=complex) / 4
        mat[where] = bad
        mat[where[::-1]] = bad
        with pytest.raises(MalformedInputError, match="non-finite"):
            DensityMatrix(mat, (2, 2))
        # a 1x1 state with a NaN entry used to pass every check
        with pytest.raises(MalformedInputError, match="non-finite"):
            DensityMatrix([[bad]], (1, 1))

    def test_mat_is_a_read_only_copy(self):
        mat = np.eye(4, dtype=complex) / 4
        rho = DensityMatrix(mat, (2, 2))
        assert not rho.mat.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rho.mat[0, 0] = 1.0
        assert mat.flags.writeable
        mat[0, 0] = 1.0  # the caller's array stays theirs
        assert rho.mat[0, 0] == 0.25


class TestCachedEigensystems:
    def test_eig_is_computed_once_and_read_only(self):
        rho = random_rho((2, 3), 3)
        values, vectors = rho.eig
        assert rho.eig is rho.eig
        assert_allclose(values, np.linalg.eigvalsh(rho.mat), atol=1e-14)
        assert_allclose((vectors * values) @ vectors.conj().T, rho.mat, atol=1e-13)
        assert not values.flags.writeable and not vectors.flags.writeable

    def test_reduced_eig_matches_partial_traces(self):
        rho = random_rho((2, 3), 4)
        assert rho.reduced_eig is rho.reduced_eig
        for side in "AB":
            want = np.linalg.eigh(partial_trace(rho.mat, rho.dims, side))
            assert np.array_equal(rho.reduced_eig[side].values, want.eigenvalues)
            assert np.array_equal(rho.reduced_eig[side].vectors, want.eigenvectors)
            assert not rho.reduced_eig[side].vectors.flags.writeable

    def test_reduced_states_are_kept_read_only(self):
        rho = random_rho((2, 3), 4)
        assert rho.reduced is rho.reduced
        for side in "AB":
            assert np.array_equal(rho.reduced[side], partial_trace(rho.mat, rho.dims, side))
            with pytest.raises(ValueError, match="read-only"):
                rho.reduced[side][0, 0] = 1.0

    def test_measure_then_classify_costs_what_classify_alone_costs(self, monkeypatch):
        """classify's measure witness reads the report truncation_measure kept
        on the state, so running truncation_measure first adds no eigen call."""
        calls = []
        for name in ("eigh", "eigvalsh"):

            def counting(a, *args, _solver=getattr(np.linalg, name), **kwargs):
                calls.append(np.shape(a))
                return _solver(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        counts = []
        for run in ((classify,), (truncation_measure, classify)):
            rho = random_rho((2, 3), 5)
            calls.clear()
            for f in run:
                f(rho)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_one_full_eigendecomposition_per_state(self, monkeypatch):
        """M, G and classify on one state share a single d x d eigh."""
        rho = random_rho((2, 3), 5)
        shapes = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        truncation_measure(rho)
        partition_measure(rho)
        classify(rho)
        assert shapes.count((6, 6)) == 1

    def test_one_partial_transpose_eigvalsh_per_state(self, monkeypatch):
        """M's ppt_min_eig and classify's NPT test share one d x d eigvalsh;
        validation's own eigvalsh ran when the state was built."""
        rho = random_rho((2, 3), 5)
        want = float(np.linalg.eigvalsh(partial_transpose(rho.mat, rho.dims, "B"))[0])
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert truncation_measure(rho).ppt_min_eig == want
        assert next(o.witness for o in classify(rho).evidence if o.test == "npt") == want
        assert shapes.count((6, 6)) == 1


class TestPartialTrace:
    def test_traces_to_reduced_of_kron(self):
        """tr_B(x (x) y) = tr(y) * x and tr_A(x (x) y) = tr(x) * y."""
        x = random_hermitian(2, 1)
        y = random_hermitian(3, 2)
        m = np.kron(x, y)
        assert_allclose(partial_trace(m, (2, 3), "A"), np.trace(y) * x, atol=1e-12)
        assert_allclose(partial_trace(m, (2, 3), "B"), np.trace(x) * y, atol=1e-12)

    def test_manual_block_sum(self):
        rho = random_rho((2, 3), 7)
        blocks = rho.mat.reshape(2, 3, 2, 3)
        manual_a = np.zeros((2, 2), dtype=complex)
        for b in range(3):
            manual_a += blocks[:, b, :, b]
        assert_allclose(partial_trace(rho.mat, rho.dims, "A"), manual_a, atol=1e-14)

    @given(st.integers(0, 50))
    def test_preserves_trace(self, seed):
        rho = random_rho((2, 2), seed)
        for keep in ("A", "B"):
            red = partial_trace(rho.mat, rho.dims, keep)
            assert abs(np.trace(red) - 1) < 1e-12

    def test_rejects_bad_keep(self):
        with pytest.raises(MalformedInputError, match="keep must be"):
            partial_trace(np.eye(4), (2, 2), "C")

    def test_rejects_shape_mismatch(self):
        with pytest.raises(MalformedInputError, match="does not match dims"):
            partial_trace(np.eye(4), (2, 3), "A")


class TestPartialTranspose:
    @given(st.integers(0, 50))
    def test_involution(self, seed):
        rho = random_rho((2, 3), seed)
        for side in ("A", "B"):
            twice = partial_transpose(partial_transpose(rho.mat, rho.dims, side), rho.dims, side)
            assert_allclose(twice, rho.mat, atol=1e-14)

    @given(st.integers(0, 50))
    def test_both_sides_compose_to_full_transpose(self, seed):
        rho = random_rho((2, 3), seed)
        ab = partial_transpose(partial_transpose(rho.mat, rho.dims, "A"), rho.dims, "B")
        assert_allclose(ab, rho.mat.T, atol=1e-14)

    def test_on_kron_transposes_one_factor(self):
        x = random_hermitian(2, 3)
        y = random_hermitian(2, 4)
        m = np.kron(x, y)
        assert_allclose(partial_transpose(m, (2, 2), "B"), np.kron(x, y.T), atol=1e-13)
        assert_allclose(partial_transpose(m, (2, 2), "A"), np.kron(x.T, y), atol=1e-13)

    def test_bell_spectrum(self):
        """The flipped maximally entangled pair is the swap operator over 2."""
        pt = partial_transpose(bell(2).mat, (2, 2), "B")
        assert_allclose(np.linalg.eigvalsh(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_rejects_bad_side(self):
        with pytest.raises(MalformedInputError, match="side must be"):
            partial_transpose(np.eye(4), (2, 2), "X")


class TestHermitianEig:
    """The square-and-Hermitian check von_neumann_entropy runs before its eigh."""

    def test_rejects_non_hermitian(self):
        with pytest.raises(MalformedInputError, match="not Hermitian"):
            von_neumann_entropy(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(MalformedInputError, match="square"):
            von_neumann_entropy(np.zeros((2, 3)))


class TestTensorProduct:
    def test_entry_mapping(self):
        """Entry check against the definition: row (a, c), column (b, d) on
        the combined sides, each factor indexed the ordinary way."""
        s = sigma()
        t = tau()
        big = tensor_product(s, t)
        assert big.dims == BipartiteDims(6, 6)
        rng = np.random.default_rng(0)
        for _ in range(300):
            a, a2, b, b2 = rng.integers(0, 2, size=4)
            c, c2, d, d2 = rng.integers(0, 3, size=4)
            row = (a * 3 + c) * 6 + (b * 3 + d)
            col = (a2 * 3 + c2) * 6 + (b2 * 3 + d2)
            expected = s.mat[a * 2 + b, a2 * 2 + b2] * t.mat[c * 3 + d, c2 * 3 + d2]
            assert big.mat[row, col] == pytest.approx(expected, abs=1e-15)

    def test_reductions_factorize(self):
        s = random_rho((2, 2), 5)
        t = random_rho((2, 3), 6)
        big = tensor_product(s, t)
        left = np.kron(partial_trace(s.mat, s.dims, "A"), partial_trace(t.mat, t.dims, "A"))
        right = np.kron(partial_trace(s.mat, s.dims, "B"), partial_trace(t.mat, t.dims, "B"))
        assert_allclose(partial_trace(big.mat, big.dims, "A"), left, atol=1e-12)
        assert_allclose(partial_trace(big.mat, big.dims, "B"), right, atol=1e-12)
