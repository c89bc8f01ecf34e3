"""Eigenvalue clustering and truncated components."""
import ast
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
from ncorr import spectral
from ncorr import (
    DEFAULT_TOLERANCES,
    DensityMatrix,
    MalformedInputError,
    StateSpec,
    bell,
    build,
    cluster_spectrum,
    decompose,
    haar_unitary,
    random_classical,
    random_density,
    sigma,
    sigma_dprime,
    sigma_prime,
    tau,
    truncated_component,
    varsigma,
    xi,
    xi_prime,
    zeta,
    zeta_prime,
)


def test_rejects_raw_matrix():
    with pytest.raises(MalformedInputError, match="expects a DensityMatrix"):
        cluster_spectrum(np.eye(4) / 4)


def test_varsigma_single_cluster():
    dec = cluster_spectrum(varsigma())
    assert len(dec.clusters) == 1
    assert dec.dropped == 2
    (c,) = dec.clusters
    assert c.eta == pytest.approx(0.5, abs=1e-12)
    assert c.multiplicity == 2
    assert c.vectors.shape == (4, 2)


def test_sigma_three_simple_clusters():
    dec = cluster_spectrum(sigma())
    assert len(dec.clusters) == 3
    assert dec.dropped == 1
    etas = [c.eta for c in dec.clusters]
    assert_allclose(etas, [1 / 6, 1 / 3, 1 / 2], atol=1e-12)
    assert [c.multiplicity for c in dec.clusters] == [1, 1, 1]


def test_tau_triple_cluster():
    dec = cluster_spectrum(tau())
    assert [(c.multiplicity,) for c in dec.clusters] == [(3,)]
    assert dec.clusters[0].eta == pytest.approx(1 / 3, abs=1e-12)
    assert dec.dropped == 6


def test_zeta_quadruple_cluster():
    dec = cluster_spectrum(zeta())
    assert len(dec.clusters) == 1
    assert dec.clusters[0].multiplicity == 4


def test_xi_cluster_structure():
    dec = cluster_spectrum(xi())
    got = [(c.eta, c.multiplicity) for c in dec.clusters]
    want = [(1 / 36, 1), (1 / 18, 2), (1 / 12, 2), (1 / 9, 1), (1 / 6, 2), (1 / 4, 1)]
    assert len(got) == len(want)
    for (eta, mult), (weta, wmult) in zip(got, want):
        assert eta == pytest.approx(weta, abs=1e-12)
        assert mult == wmult
    assert dec.dropped == 7


def test_xi_prime_multiplicities():
    """The lowest eigenvalue is a product of two entangled vectors, hence
    rank one despite its reduction having four nonzero eigenvalues."""
    comps = decompose(xi_prime())
    got = [(c.eta, c.multiplicity) for c in comps]
    assert [m for _, m in got] == [1, 4, 4]
    assert_allclose([e for e, _ in got], [1 / 16, 3 / 32, 9 / 64], atol=1e-12)
    lowest = comps[0]
    assert_allclose(lowest.spectrum_a, [1 / 64] * 4, atol=1e-10)
    assert_allclose(lowest.spectrum_b, [1 / 64] * 4, atol=1e-10)


def test_cluster_eta_is_numpys_mean_on_the_benchmark_inputs():
    """Each cluster's eta is, bit for bit, .mean() of its eigenvalues on every
    state perfbench/reference.json records (the benchmark's inputs)."""
    refs = json.loads((Path(__file__).parents[1] / "perfbench" / "reference.json").read_text())["inputs"]
    shared = 0
    for key in refs:
        name, *pairs = key.split(" ")
        rho = build(StateSpec(name, {k: ast.literal_eval(v) for k, v in (p.split("=", 1) for p in pairs)}))
        values = rho.eig[0]
        dec = cluster_spectrum(rho)
        lo = dec.dropped
        for c in dec.clusters:
            assert c.eta.hex() == float(values[lo : lo + c.multiplicity].mean()).hex(), key
            shared += c.multiplicity > 1
            lo += c.multiplicity
    assert len(refs) >= 462 and shared > 100


def test_deg_tolerance_merges_near_degenerate_pairs():
    mat = np.diag([0.1, 0.1 + 1e-6, 0.4 - 1e-6, 0.4])
    rho = DensityMatrix(mat, (2, 2))
    assert len(cluster_spectrum(rho).clusters) == 4
    merged = cluster_spectrum(rho, replace(DEFAULT_TOLERANCES, deg=1e-5))
    assert len(merged.clusters) == 2
    assert [c.multiplicity for c in merged.clusters] == [2, 2]


def _chained_runs(values, deg):
    """Reference: index lists grown one index at a time while each gap stays at or below deg."""
    groups = [[0]]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] <= deg:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


@given(st.integers(0, 40), st.sampled_from([1e-9, 1e-5, 0.05]))
def test_clusters_match_the_chained_index_lists(seed, deg):
    """Near-repeats at half and twice deg, so chains both form and break at the edge."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 1.0, 4)
    base *= (1 - 6 * deg) / (2 * base.sum() + base[:2].sum())  # unit trace, offsets kept exact
    spectrum = np.concatenate([base, base + deg / 2, base[:2] + 2 * deg, [0.0, 1e-14]])
    u = haar_unitary(12, rng)
    rho = DensityMatrix((u * spectrum) @ u.conj().T, (3, 4))
    tol = replace(DEFAULT_TOLERANCES, deg=deg)
    values, vectors = rho.eig
    kept = [idx for idx in _chained_runs(values, deg) if float(values[idx].mean()) > tol.zero]
    dec = cluster_spectrum(rho, tol)
    assert [c.eta for c in dec.clusters] == [float(values[idx].mean()) for idx in kept]
    for c, idx in zip(dec.clusters, kept):
        assert c.multiplicity == len(idx)
        assert np.array_equal(c.vectors, vectors[:, idx])
        assert not c.vectors.flags.writeable  # a view of rho.eig, read-only like it
    assert dec.dropped == len(values) - sum(map(len, kept))


def test_component_matrix_is_scaled_projector():
    """eta * V V^dag over the cluster vectors is eta times a projector of
    trace eta * multiplicity, and each reduced spectrum sums to that trace."""
    cluster = cluster_spectrum(varsigma()).clusters[0]
    comp = truncated_component(cluster, (2, 2))
    v = cluster.vectors
    projector = v @ v.conj().T
    assert_allclose(projector @ projector, projector, atol=1e-12)
    quota = comp.eta * comp.multiplicity
    assert (comp.eta * projector).trace() == pytest.approx(quota, abs=1e-12)
    assert math.fsum(comp.spectrum_a) == pytest.approx(quota, abs=1e-12)
    assert math.fsum(comp.spectrum_b) == pytest.approx(quota, abs=1e-12)


def test_truncated_component_rejects_dims_mismatch():
    cluster = cluster_spectrum(sigma()).clusters[0]
    with pytest.raises(MalformedInputError, match="does not match dims"):
        truncated_component(cluster, (2, 3))


def test_components_sum_back_to_state():
    for rho in (sigma(), tau(), xi()):
        clusters = cluster_spectrum(rho).clusters
        total = sum(c.eta * (c.vectors @ c.vectors.conj().T) for c in clusters)
        assert_allclose(total, rho.mat, atol=1e-10)
        for c, comp in zip(clusters, decompose(rho), strict=True):
            assert (comp.eta, comp.multiplicity) == (c.eta, c.multiplicity)
            assert math.fsum(comp.spectrum_a) == pytest.approx(c.eta * c.multiplicity, abs=1e-10)
            assert math.fsum(comp.spectrum_b) == pytest.approx(c.eta * c.multiplicity, abs=1e-10)


def _shapes(max_total):
    return [(dA, dB) for dA in range(1, max_total + 1) for dB in range(1, max_total // dA + 1)]


def _cross_check_states():
    yield from (varsigma(), sigma(), sigma_prime(), sigma_dprime(), tau(), zeta(), zeta_prime(), xi(), xi_prime())
    yield from (bell(n) for n in (2, 3, 4))
    for dA, dB in _shapes(12):
        d = dA * dB
        for seed in range(3):
            yield random_density((dA, dB), seed=seed)
            yield random_classical((dA, dB), seed=seed).state
            if d > 1:
                yield random_density((dA, dB), rank=1 + seed % (d - 1), seed=seed)
    yield random_density((12, 12), seed=5)


def test_slice_spectra_equal_dense_projector_spectra():
    """The reduced spectra from one product per side match those of the dense
    eta * V V^dag they replaced (tests/oracles.py). The two add each entry's
    products in different orders, and eigvalsh is not eigh, so they agree to
    the bound of the degenerate-eigenspace test below: a few ulps of the
    quota per dimension."""
    eps = np.finfo(float).eps
    checked = 0
    for rho in _cross_check_states():
        for cluster in cluster_spectrum(rho).clusters:
            comp = truncated_component(cluster, rho.dims)
            bound = 4 * rho.dims.total * eps * cluster.eta * cluster.multiplicity
            want_a, want_b = oracles.dense_component_spectra(cluster, rho.dims, DEFAULT_TOLERANCES)
            assert_allclose(comp.spectrum_a, want_a, rtol=0, atol=bound)
            assert_allclose(comp.spectrum_b, want_b, rtol=0, atol=bound)
            checked += 1
    assert checked > 1000


def _repeated_spectrum_state(dims, seed):
    """A state whose eigenvalues repeat one to three times, in random order."""
    d = dims[0] * dims[1]
    rng = np.random.default_rng(seed)
    levels = rng.uniform(1, 2, d)
    weights = np.repeat(levels, rng.integers(1, 4, d))[:d]
    rng.shuffle(weights)
    u = haar_unitary(d, rng)
    return DensityMatrix((u * (weights / weights.sum())) @ u.conj().T, dims)


def test_decompose_equals_truncated_component_per_cluster():
    """decompose's stacks of one multiplicity give, bit for bit, what
    truncated_component gives each cluster alone: every shape up to 12,
    mixed multiplicities, and 12 x 12 and 16 x 16 states whose stacks
    span several chunks."""
    states = list(_cross_check_states())
    states += [_repeated_spectrum_state(dims, seed) for dims in _shapes(12) for seed in (0, 1)]
    states += [_repeated_spectrum_state((12, 12), 2), random_density((16, 16), seed=1)]
    chunked = 0
    for rho in states:
        clusters = cluster_spectrum(rho).clusters
        comps = decompose(rho)
        assert len(comps) == len(clusters)
        for cluster, comp in zip(clusters, comps):
            alone = truncated_component(cluster, rho.dims)
            assert (comp.eta, comp.multiplicity) == (alone.eta, alone.multiplicity)
            assert comp.spectrum_a.tobytes() == alone.spectrum_a.tobytes()
            assert comp.spectrum_b.tobytes() == alone.spectrum_b.tobytes()
        per_m = {m: sum(c.multiplicity == m for c in clusters) for m in {c.multiplicity for c in clusters}}
        chunked += any(k * rho.dims.total * m > spectral._STACK_ENTRIES for m, k in per_m.items())
    assert chunked >= 3


@pytest.mark.parametrize("dims", _shapes(12))
def test_slice_spectra_match_dense_on_degenerate_eigenspaces(dims):
    """A generic eigenspace of multiplicity m > 1 sums m products per entry.
    The dense path's one big matrix product and the slices' small ones may
    add them in different orders, so these agree to a tolerance fixed from
    the dtype: a few ulps of the quota per dimension."""
    d = dims[0] * dims[1]
    eps = np.finfo(float).eps
    for seed in range(5):
        rng = np.random.default_rng(seed)
        u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        weights = rng.integers(1, 4, d).astype(float)
        rho = DensityMatrix((u * (weights / weights.sum())) @ u.conj().T, dims)
        for cluster in cluster_spectrum(rho).clusters:
            comp = truncated_component(cluster, dims)
            quota = cluster.eta * cluster.multiplicity
            for got, want in zip(
                (comp.spectrum_a, comp.spectrum_b),
                oracles.dense_component_spectra(cluster, rho.dims, DEFAULT_TOLERANCES),
            ):
                assert_allclose(got, want, rtol=0, atol=4 * d * eps * quota)


def test_decompose_memory_is_quadratic_in_dimension():
    """A full-rank 12 x 12 state has 144 eigenspaces; holding a dense d x d
    matrix for each would peak near 46 MiB. The bound is four complex d x d
    arrays: the eigenvectors and eigh's work space."""
    rho = random_density((12, 12), seed=3)
    d = rho.dims.total
    tracemalloc.start()
    try:
        components = decompose(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(components) == d
    assert peak < 4 * d * d * 16


def test_spectra_are_descending():
    for comp in decompose(xi()):
        assert np.all(np.diff(comp.spectrum_a) <= 0)
        assert np.all(np.diff(comp.spectrum_b) <= 0)


@given(st.integers(0, 40))
def test_random_state_component_invariants(seed):
    """Each reduced spectrum of a truncated component sums to its trace
    eta * multiplicity, and multiplicities sum to the rank."""
    rho = random_density((2, 3), seed=seed)
    comps = decompose(rho)
    assert sum(c.multiplicity for c in comps) == 6
    for c in comps:
        quota = c.eta * c.multiplicity
        assert math.fsum(c.spectrum_a) == pytest.approx(quota, abs=1e-9)
        assert math.fsum(c.spectrum_b) == pytest.approx(quota, abs=1e-9)


@given(st.integers(0, 40), st.integers(1, 5))
def test_rank_deficient_drop_count(seed, rank):
    rho = random_density((2, 3), rank=rank, seed=seed)
    dec = cluster_spectrum(rho)
    assert dec.dropped == 6 - rank
    assert sum(c.multiplicity for c in dec.clusters) == rank
