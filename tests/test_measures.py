"""Truncation measure, partition measure, and the scalar helpers under them."""
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles
from ncorr import measures
from ncorr import (
    BipartiteDims,
    CapabilityError,
    DensityMatrix,
    DomainError,
    MalformedInputError,
    StateSpec,
    Tolerances,
    bell,
    build,
    classify,
    decompose,
    entropy_of_entanglement,
    kappa,
    mimic_discrepancy,
    nearest_integer_multiple,
    partial_trace,
    partition_discrepancy,
    partition_measure,
    phi_p,
    ppt_min_eigenvalue,
    projector,
    random_classical,
    random_density,
    schmidt_decomposition,
    sigma,
    sigma_prime,
    surprisal_term,
    tau,
    truncation_measure,
    truncation_measure_side,
    varsigma,
    von_neumann_entropy,
)


class TestNearestIntegerMultiple:
    def test_zero_step_maps_everything_to_zero(self):
        assert nearest_integer_multiple(0.37, 0.0) == 0.0

    @pytest.mark.parametrize(
        "x,y,want",
        [
            (0.12, 0.25, 0.0),
            (0.24, 0.25, 0.25),
            (0.26, 0.25, 0.25),
            (0.74, 0.25, 0.75),
            (0.5, 1.0, 0.0),       # exact half rounds down
            (0.375, 0.25, 0.25),   # 1.5 steps rounds down to 1 step
            (0.125, 0.25, 0.0),
        ],
    )
    def test_values(self, x, y, want):
        assert nearest_integer_multiple(x, y) == pytest.approx(want, abs=1e-15)

    def test_tie_window_is_relative(self):
        y = 0.25
        just_above_half = y / 2 + y * 1e-10  # inside the default window
        assert nearest_integer_multiple(just_above_half, y) == 0.0
        clearly_above = y / 2 + y * 1e-6
        assert nearest_integer_multiple(clearly_above, y) == y

    def test_rejects_negative(self):
        with pytest.raises(DomainError, match="nonnegative"):
            nearest_integer_multiple(-0.1, 0.5)
        with pytest.raises(DomainError, match="nonnegative"):
            nearest_integer_multiple(0.1, -0.5)

    @pytest.mark.parametrize("x,y", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf), (1.0, math.nan)])
    def test_rejects_non_finite(self, x, y):
        """A DomainError, not math's ValueError or OverflowError, and never an infinite multiple."""
        with pytest.raises(DomainError, match="nonnegative and finite"):
            nearest_integer_multiple(x, y)

    @given(st.floats(0, 20), st.floats(1e-6, 10))
    def test_result_is_a_close_multiple(self, ratio, y):
        x = ratio * y
        got = nearest_integer_multiple(x, y)
        k = got / y
        assert abs(k - round(k)) < 1e-6
        assert abs(x - got) <= y / 2 + 2e-9 * y

    @given(st.integers(0, 100), st.floats(1e-3, 10))
    def test_exact_multiples_are_fixed_points(self, k, y):
        assert nearest_integer_multiple(k * y, y) == k * y


class TestSurprisalTerm:
    def test_zero_when_prediction_matches(self):
        assert surprisal_term(0.25, 0.25, 1.0) == 0.0

    def test_zero_at_full_quota(self):
        assert surprisal_term(0.5, 0.0, 0.5) == 0.0

    def test_known_value(self):
        # -|1/4 - 0| * log2((1/4) / (1/2)) = 1/4
        assert surprisal_term(0.25, 0.0, 0.5) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize(
        "x,y,quota,match",
        [
            (0.0, 0.1, 1.0, "x must be positive"),
            (-0.2, 0.1, 1.0, "x must be positive"),
            (0.5, 0.1, 0.4, "exceeds quota"),
            (0.5, 0.1, 0.0, "quota must be positive"),
            (0.5, -0.1, 1.0, "y must be nonnegative"),
            (math.nan, 0.1, 1.0, "x must be positive"),
            (0.5, math.nan, 1.0, "y must be nonnegative and finite"),
            (0.5, math.inf, 1.0, "y must be nonnegative and finite"),
            (0.5, 0.1, math.nan, "quota must be positive and finite"),
            (0.5, 0.1, math.inf, "quota must be positive and finite"),
        ],
    )
    def test_domain_errors(self, x, y, quota, match):
        with pytest.raises(DomainError, match=match):
            surprisal_term(x, y, quota)

    @given(
        st.floats(1e-9, 1.0),
        st.floats(0, 2),
        st.floats(1e-6, 1.0),
    )
    def test_nonnegative(self, frac, y, quota):
        x = frac * quota
        assert surprisal_term(x, y, quota) >= 0.0


class TestTolerances:
    @pytest.mark.parametrize("field", ["deg", "tie", "recon"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-300])
    def test_non_finite_or_negative_rejected(self, field, bad):
        with pytest.raises(DomainError, match=f"tolerance {field} must be finite and >= 0"):
            Tolerances(**{field: bad})
        with pytest.raises(DomainError, match=f"tolerance {field}"):
            replace(Tolerances(), **{field: bad})

    def test_zero_accepted(self):
        assert Tolerances(deg=0.0, tie=0.0).as_dict()["deg"] == 0.0


class TestTruncationMeasure:
    def test_side_argument_checked(self):
        comps = decompose(sigma())
        with pytest.raises(DomainError, match="side must be"):
            truncation_measure_side(comps, "C")

    def test_per_component_sums(self):
        report = truncation_measure(varsigma())
        assert report.side_a == pytest.approx(sum(c.side_a for c in report.per_component), abs=1e-12)
        assert report.side_b == pytest.approx(sum(c.side_b for c in report.per_component), abs=1e-12)
        assert report.value == pytest.approx((report.side_a + report.side_b) / 2, abs=1e-15)

    def test_report_side_channels(self):
        report = truncation_measure(tau())
        assert report.ppt_min_eig == pytest.approx(ppt_min_eigenvalue(tau()), abs=1e-12)
        assert report.entropy_a == pytest.approx(math.log2(3), abs=1e-9)
        assert report.entropy_b == pytest.approx(math.log2(3), abs=1e-9)

    def test_report_is_kept_on_the_state_per_tolerances(self):
        """A second call returns the first report; other tolerances get their
        own, and classify's witness reads the one for its tolerances."""
        rho = DensityMatrix(np.diag([0.1, 0.1 + 1e-6, 0.4 - 1e-6, 0.4]), (2, 2))
        report = truncation_measure(rho)
        assert truncation_measure(rho, Tolerances()) is report
        loose = Tolerances(deg=1e-5)
        merged = truncation_measure(rho, loose)
        assert merged is not report
        assert truncation_measure(rho, loose) is merged
        assert [c.multiplicity for c in report.per_component] == [1, 1, 1, 1]
        assert [c.multiplicity for c in merged.per_component] == [2, 2]
        witness = next(o.witness for o in classify(rho, loose).evidence if o.test == "measure-witness")
        assert witness == merged.value

    def test_maximally_mixed_scores_zero(self):
        rho = DensityMatrix(np.eye(6) / 6, (2, 3))
        assert truncation_measure(rho).value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.05, 0.2, 0.3, 0.5, 0.7, 0.95])
    def test_pure_two_qubit_closed_form(self, p):
        assert truncation_measure(phi_p(p)).value == pytest.approx(oracles.m_pure(p), abs=1e-12)

    @given(st.floats(0.01, 0.99))
    def test_pure_closed_form_property(self, p):
        # 1e-8 rather than 1e-9: within the rounding tie window around
        # p = 1/2 the down-rounding branch shifts the value by ~1.4 * tie.
        assert truncation_measure(phi_p(p)).value == pytest.approx(oracles.m_pure(p), abs=1e-8)

    @given(st.integers(0, 30))
    def test_classical_states_score_zero(self, seed):
        sample = random_classical((2, 3), seed=seed)
        assert truncation_measure(sample.state).value <= 1e-8

    @given(st.integers(0, 30))
    def test_classical_reduced_spectra_are_multiples(self, seed):
        """Product-eigenbasis states: every truncated component's reduced
        eigenvalue is an integer multiple of the component eigenvalue."""
        sample = random_classical((2, 2), seed=seed)
        for comp in decompose(sample.state):
            for spectrum in (comp.spectrum_a, comp.spectrum_b):
                for lam in spectrum:
                    predicted = nearest_integer_multiple(lam, comp.eta)
                    assert abs(lam - predicted) < 1e-8

    @given(st.integers(0, 30), st.sampled_from([(2, 2), (2, 3), (3, 3)]))
    def test_dimension_bound(self, seed, dims):
        """The measure never exceeds log2 of the larger subsystem dimension."""
        rho = random_density(dims, seed=seed)
        bound = math.log2(max(dims))
        assert truncation_measure(rho).value <= bound + 1e-9

    def test_bell_hits_the_dimension_bound(self):
        for n in (2, 3, 4):
            assert truncation_measure(bell(n)).value == pytest.approx(math.log2(n), abs=1e-12)

    def test_reduced_state_of_an_accepted_state_is_not_rechecked(self):
        """Validation accepts eigenvalues of -0.9e-10 (tol.psd = 1e-10), and
        tracing out B adds three of them into one reduced eigenvalue of
        -2.7e-10. That is rounding of a valid state, not a new input."""
        mat = np.diag([0.4, 0.3, 0.3, -0.9e-10, -0.9e-10, -0.9e-10])
        rho = DensityMatrix(mat / mat.trace(), (2, 3))
        report = truncation_measure(rho)
        assert report.value == 0.0
        assert report.entropy_a == pytest.approx(0.0, abs=1e-9)


class TestPartitionMeasure:
    def test_mimic_requires_consistent_shapes(self):
        with pytest.raises(DomainError, match="cannot split"):
            mimic_discrepancy([0.5, 0.5, 0.0], [1.0], 2, 2)
        with pytest.raises(DomainError, match="genuine eigenvalues"):
            mimic_discrepancy([0.5, 0.5, 0.0, 0.0], [1.0], 2, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_mimic_rejects_non_finite_global_spectrum(self, bad):
        with pytest.raises(DomainError, match="finite"):
            mimic_discrepancy([bad, 0.5, 0.5, 0.0], [0.5, 0.5], 2, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_mimic_rejects_non_finite_genuine_spectrum(self, bad):
        with pytest.raises(DomainError, match="finite"):
            mimic_discrepancy([0.25, 0.25, 0.5, 0.0], [bad, 0.5], 2, 2)

    def test_mimic_ignores_genuine_order(self):
        glob = [0.1, 0.2, 0.3, 0.4]
        a = mimic_discrepancy(glob, [0.7, 0.3], 2, 2)
        b = mimic_discrepancy(glob, [0.3, 0.7], 2, 2)
        assert a == b

    def test_mimic_zero_when_grouping_reproduces(self):
        # {0.1, 0.2} + {0.3, 0.4} can mimic {0.3, 0.7} exactly
        assert mimic_discrepancy([0.1, 0.2, 0.3, 0.4], [0.3, 0.7], 2, 2) == pytest.approx(0.0, abs=1e-12)

    def test_side_argument_checked(self):
        with pytest.raises(DomainError, match="side must be"):
            partition_discrepancy(sigma(), "C")

    def test_sigma_closed_form(self):
        assert partition_discrepancy(sigma(), "A") == pytest.approx(0.0, abs=1e-9)
        assert partition_discrepancy(sigma(), "B") == pytest.approx(oracles.G_SIGMA, abs=1e-9)
        assert partition_measure(sigma()) == pytest.approx(oracles.G_SIGMA, abs=1e-9)

    def test_sigma_prime_vanishes(self):
        assert partition_measure(sigma_prime()) == pytest.approx(0.0, abs=1e-9)

    def test_pure_product_state_vanishes(self):
        assert partition_measure(phi_p(0.0)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("dims,seed", [((2, 2), 3), ((2, 2), 9), ((2, 3), 4), ((3, 2), 12)])
    def test_matches_brute_force_scan(self, dims, seed):
        rho = random_density(dims, seed=seed)
        glob = np.linalg.eigvalsh(rho.mat)
        for side, n_groups, group_size in (("A", dims[0], dims[1]), ("B", dims[1], dims[0])):
            genuine = np.linalg.eigvalsh(partial_trace(rho.mat, rho.dims, side))
            want = oracles.brute_force_partition_minimum(glob, genuine, n_groups, group_size)
            assert partition_discrepancy(rho, side) == pytest.approx(want, abs=1e-10)

    def test_guard_limit_names_the_count(self):
        rho = random_density((3, 6), seed=0)
        for side, formula, n_groups, group_size in (
            ("A", "(d^A d^B)!/((d^B!)^(d^A) d^A!)", 3, 6),
            ("B", "(d^A d^B)!/((d^A!)^(d^B) d^B!)", 6, 3),
        ):
            expected_count = math.factorial(18) // (math.factorial(group_size) ** n_groups * math.factorial(n_groups))
            with pytest.raises(CapabilityError) as err:
                partition_discrepancy(rho, side)
            msg = str(err.value)
            assert formula in msg
            assert f"here {expected_count}" in msg
            assert "guard limit 16" in msg

    def test_guard_limit_is_adjustable(self):
        rho = random_density((2, 2), seed=1)
        with pytest.raises(CapabilityError):
            partition_discrepancy(rho, "A", max_dim=2)

    @pytest.mark.parametrize("bad", [-1, 0, True, 2.0, 16.0, "16", None])
    def test_guard_limit_must_be_a_positive_integer(self, bad):
        for compute in (lambda: partition_discrepancy(sigma(), "A", bad), lambda: partition_measure(sigma(), bad)):
            with pytest.raises(DomainError, match="max_dim must be an integer >= 1"):
                compute()

    def test_guard_limit_accepts_numpy_integers(self):
        assert partition_measure(sigma(), np.int64(4)) == partition_measure(sigma())

    @pytest.mark.parametrize(
        "glob,genuine,n_groups,group_size,name",
        [
            ([], [], 0, 0, "n_groups"),
            ([0.5, 0.5], [0.5, 0.5], 2.0, 1, "n_groups"),
            ([0.5, 0.5], [1.0], True, 2, "n_groups"),
            ([0.5, 0.5], [1.0], -1, -2, "n_groups"),
            ([0.5, 0.5], [1.0], 1, 2.0, "group_size"),
            ([0.5, 0.5], [0.5, 0.5], 2, True, "group_size"),
            ([], [0.5], 1, 0, "group_size"),
        ],
    )
    def test_mimic_shape_must_be_positive_integers(self, glob, genuine, n_groups, group_size, name):
        with pytest.raises(DomainError, match=f"{name} must be an integer >= 1"):
            mimic_discrepancy(glob, genuine, n_groups, group_size)


_DIVISOR_PAIRS = [(n, g) for n in range(1, 17) for g in range(1, n + 1) if n % g == 0]


class TestGroupingTables:
    """The numpy-built subset and grouping tables against the builders they
    replaced (oracles.colex_subsets and oracles.grouping_tables)."""

    @pytest.mark.parametrize("n,g", _DIVISOR_PAIRS)
    def test_tables_equal_the_reference(self, n, g):
        got_tables = (measures._subsets(n, g), *measures._split(n, g))
        want_tables = (oracles.colex_subsets(n, g), *oracles.grouping_tables(n, g))
        for got, want in zip(got_tables, want_tables):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n,g", _DIVISOR_PAIRS)
    def test_one_row_per_grouping(self, n, g):
        maps, rows = measures._split(n, g)
        assert len(maps) * len(rows) == measures._partition_count(n // g, g)

    def test_tables_at_total_dimension_18_peak_below_40_mib(self):
        """The kept rows of _split(18, 2) are 17.4 MiB; building them through
        intp arrays peaked at 173 MB."""
        measures._split.cache_clear()
        measures._subsets.cache_clear()
        tracemalloc.start()
        try:
            measures._split(18, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            measures._split.cache_clear()
            measures._subsets.cache_clear()
        assert peak < 40 * 2**20


def _spectra(kind, dims, seed):
    """Global and both reduced spectra of a test state of the given kind."""
    if kind == "random":
        rho = random_density(dims, seed=seed)
    elif kind == "classical":
        rho = random_classical(dims, seed=seed).state
    else:  # rank-deficient: zeros in the global spectrum
        rho = random_density(dims, rank=max(1, dims[0] * dims[1] // 3), seed=seed)
    reduced = (np.linalg.eigvalsh(partial_trace(rho.mat, rho.dims, side)) for side in "AB")
    return (np.linalg.eigvalsh(rho.mat), *reduced)


CROSS_CHECK_DIMS = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 5), (5, 2), (3, 3), (2, 6), (6, 2), (3, 4), (4, 3)]


class TestSearchMatchesEnumerator:
    """The vectorized G search against the per-grouping enumerator it
    replaced (oracles.enumerated_partition_minimum), compared with ==."""

    @pytest.mark.parametrize("kind", ["random", "classical", "rank_deficient"])
    @pytest.mark.parametrize("dims", CROSS_CHECK_DIMS, ids=lambda d: f"{d[0]}x{d[1]}")
    def test_states(self, dims, kind):
        for seed in range(1 if dims[0] * dims[1] == 12 else 3):
            glob, reduced_a, reduced_b = _spectra(kind, dims, seed)
            for genuine, n_groups, group_size in ((reduced_a, dims[0], dims[1]), (reduced_b, dims[1], dims[0])):
                want = oracles.enumerated_partition_minimum(glob, genuine, n_groups, group_size)
                assert mimic_discrepancy(glob, genuine, n_groups, group_size) == want

    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_block_size_leaves_result_unchanged(self, monkeypatch, block):
        """Small blocks split both the anchors and the remainder rows."""
        monkeypatch.setattr(measures, "_BLOCK", block)
        for dims in ((2, 4), (4, 2), (3, 3)):
            glob, reduced_a, reduced_b = _spectra("rank_deficient", dims, 0)
            for genuine, n_groups, group_size in ((reduced_a, dims[0], dims[1]), (reduced_b, dims[1], dims[0])):
                want = oracles.enumerated_partition_minimum(glob, genuine, n_groups, group_size)
                assert mimic_discrepancy(glob, genuine, n_groups, group_size) == want

    @pytest.mark.parametrize(
        "glob,genuine,n_groups,group_size",
        [
            ([0.25] * 4 + [0.0] * 8, [0.25] * 4, 4, 3),
            ([0.25] * 4 + [0.0] * 8, [1 / 3] * 3, 3, 4),
            ([1 / 12] * 12, [0.5, 0.5], 2, 6),
            ([1 / 3] * 3 + [0.0] * 6, [1 / 3] * 3, 3, 3),
            ([0.1] * 5 + [0.25] * 2, [0.2] * 5 + [0.0] * 2, 7, 1),
            ([0.2] * 3 + [0.1] * 4, [1.0], 1, 7),
            ([0.5, 0.5, 0.0, 0.0, -1e-17, 1e-17], [0.5, 0.5, 0.0], 3, 2),
            ([0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05], [0.5, 0.3, 0.1, 0.1], 4, 2),
            # Rational spectra whose groupings tie up to rounding, where the
            # numpy screen ranks groupings differently from math.fsum: a
            # search without the error margin misses the exact minimum.
            ([0, 0.2, 0.16, 0.08, 0, 0.16, 0.2, 0.16, 0.04], [0.4, 0.28, 0.32], 3, 3),
            (
                [w / 30 for w in (1, 5, 2, 3, 0, 3, 2, 4, 1, 4, 5, 0)],
                [float.fromhex(h) for h in ("0x1.9999999999999p-3", "0x1.3333333333333p-2", "0x1.5555555555556p-2", "0x1.5555555555556p-3")],
                4,
                3,
            ),
            (
                [w / 25 for w in (1, 0, 0, 4, 4, 5, 2, 5, 3, 1)],
                [0.2, 0.2, 0.2, 0.16, float.fromhex("0x1.eb851eb851eb9p-3")],
                5,
                2,
            ),
        ],
    )
    def test_degenerate_spectra(self, glob, genuine, n_groups, group_size):
        want = oracles.enumerated_partition_minimum(glob, genuine, n_groups, group_size)
        assert mimic_discrepancy(glob, genuine, n_groups, group_size) == want

    @pytest.mark.parametrize("name", ["zeta", "zeta_prime", "xi", "xi_prime"])
    def test_catalog_4x4(self, name):
        """G of the 4x4 catalog states, recorded from the enumerator (about
        80 s a side) before it left the library, with the spectra it
        searched: eigh's last bits vary across LAPACK builds."""
        rec = json.loads((Path(__file__).parent / "data" / "partition_4x4.json").read_text())[name]
        rho = build(StateSpec(name, {}))
        spectra = {key: [float.fromhex(h) for h in rec[key]] for key in ("global", "reduced_a", "reduced_b")}
        assert_allclose(np.linalg.eigvalsh(rho.mat), spectra["global"], atol=1e-12)
        for side, key, want in (("A", "reduced_a", rec["g_a"]), ("B", "reduced_b", rec["g_b"])):
            assert_allclose(np.linalg.eigvalsh(partial_trace(rho.mat, rho.dims, side)), spectra[key], atol=1e-12)
            assert mimic_discrepancy(spectra["global"], spectra[key], 4, 4) == float.fromhex(want)

    @pytest.mark.parametrize("shape", ["2x9", "3x6"])
    def test_side_a_at_total_dimension_18(self, shape):
        """Side-A G of random_density(shape, seed=1), past the default guard,
        recorded with the spectra it searched before the search is changed.
        The recorded side-B values (g_b) take seconds a side, so they are
        cross-check data only."""
        rec = json.loads((Path(__file__).parent / "data" / "partition_18.json").read_text())[shape]
        dA, dB = map(int, shape.split("x"))
        glob, reduced_a = ([float.fromhex(h) for h in rec[key]] for key in ("global", "reduced_a"))
        rho = random_density((dA, dB), seed=1)
        assert_allclose(rho.eig.values, glob, atol=1e-12)
        assert_allclose(rho.reduced_eig["A"].values, reduced_a, atol=1e-12)
        assert mimic_discrepancy(glob, reduced_a, dA, dB) == float.fromhex(rec["g_a"])


class TestEntropyHelpers:
    def test_von_neumann_entropy_of_mixed(self):
        assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_von_neumann_rejects_negative(self):
        with pytest.raises(DomainError, match="not positive semidefinite"):
            von_neumann_entropy(np.diag([1.2, -0.2]))

    @pytest.mark.parametrize("mat", [np.full((2, 2), np.nan), np.diag([np.inf, 1.0])])
    def test_von_neumann_rejects_non_finite(self, mat):
        """Rejected before the eigendecomposition, and before inf - inf can warn."""
        with pytest.raises(MalformedInputError, match="non-finite"):
            von_neumann_entropy(mat)

    def test_zero_entropies_are_positive_zero(self):
        """A pure or product reduced state has entropy +0.0, which prints as 0, not -0."""
        report = truncation_measure(phi_p(0.0))
        product = np.zeros(4)
        product[0] = 1.0
        for value in (
            report.entropy_a,
            report.entropy_b,
            von_neumann_entropy(np.diag([1.0, 0.0])),
            entropy_of_entanglement(product, (2, 2)),
        ):
            assert value == 0.0
            assert math.copysign(1.0, value) == 1.0

    def test_entropy_of_entanglement_bell(self):
        vec = np.zeros(9)
        vec[[0, 4, 8]] = 1 / math.sqrt(3)
        assert entropy_of_entanglement(vec, (3, 3)) == pytest.approx(math.log2(3), abs=1e-12)

    def test_ppt_min_eigenvalue_values(self):
        assert ppt_min_eigenvalue(tau()) == pytest.approx(-1 / 6, abs=1e-12)
        assert ppt_min_eigenvalue(sigma()) >= -1e-12


class TestSchmidt:
    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError, match="norm"):
            schmidt_decomposition(np.ones(4), (2, 2))

    def test_norm_slack_is_tol_trace(self):
        vec = np.zeros(4)
        vec[0] = 1 + 2e-8
        with pytest.raises(DomainError, match="norm"):
            schmidt_decomposition(vec, (2, 2))
        dec = schmidt_decomposition(vec, (2, 2), Tolerances(trace=1e-7))
        assert dec.coefficients.tolist() == pytest.approx([1 + 2e-8], abs=1e-15)

    @pytest.mark.parametrize("fn", [schmidt_decomposition, entropy_of_entanglement])
    def test_rejects_nan_vector(self, fn):
        """A NaN norm fails the norm check, so numpy's SVD never sees the vector."""
        with pytest.raises(DomainError, match="norm"):
            fn(np.array([np.nan, 0, 0, 1]), (2, 2))

    def test_rejects_length_mismatch(self):
        vec = np.zeros(4)
        vec[0] = 1
        with pytest.raises(MalformedInputError, match="does not match dims"):
            schmidt_decomposition(vec, (2, 3))

    @given(st.integers(0, 40))
    def test_reconstruction_and_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        vec = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        vec /= np.linalg.norm(vec)
        dec = schmidt_decomposition(vec, (2, 3))
        assert np.all(np.diff(dec.coefficients) <= 1e-12)
        assert math.fsum(dec.coefficients**2) == pytest.approx(1.0, abs=1e-10)
        rebuilt = sum(
            c * np.kron(dec.vectors_a[:, k], dec.vectors_b[:, k])
            for k, c in enumerate(dec.coefficients)
        )
        assert_allclose(rebuilt, vec, atol=1e-10)
        gram_a = dec.vectors_a.conj().T @ dec.vectors_a
        gram_b = dec.vectors_b.conj().T @ dec.vectors_b
        assert_allclose(gram_a, np.eye(dec.rank), atol=1e-10)
        assert_allclose(gram_b, np.eye(dec.rank), atol=1e-10)

    def test_product_vector_has_rank_one(self):
        vec = np.kron([1, 0], [0.6, 0.8])
        dec = schmidt_decomposition(vec, (2, 2))
        assert dec.rank == 1
        assert dec.coefficients[0] == pytest.approx(1.0, abs=1e-12)


class TestOracleAgreement:
    """The library against the independently evaluated hand-derived tables."""

    @pytest.mark.parametrize("name", sorted(oracles.FIXED_TABLES))
    def test_fixed_catalog(self, name):
        import ncorr

        builder = getattr(ncorr, name)
        want_m, want_a, want_b = oracles.measure_value(oracles.FIXED_TABLES[name])
        report = truncation_measure(builder())
        assert report.value == pytest.approx(want_m, abs=1e-9)
        assert report.side_a == pytest.approx(want_a, abs=1e-9)
        assert report.side_b == pytest.approx(want_b, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bell_family(self, n):
        want, _, _ = oracles.measure_value(oracles.bell_table(n))
        assert truncation_measure(bell(n)).value == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("c", [(0.5, 0.0, 0.5), (0.3, 0.2, 0.1), (0.2, 0.2, 0.2), (0.0, 0.0, 0.0)])
    def test_bell_diagonal_family(self, c):
        table = oracles.kappa_table(*c)
        if table:
            want, _, _ = oracles.measure_value(table)
        else:
            want = 0.0
        assert truncation_measure(kappa(*c)).value == pytest.approx(want, abs=1e-9)
