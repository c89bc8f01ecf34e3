"""The paradigm's invariances as properties: local unitaries, swapping A and B,
tensor products of classical states, classical states at a degeneracy, and
classical states perturbed far below tol.deg or with eigenvalues chained just
under it. They hold whatever the last bits of M and F are, so they keep
guarding when a kernel change moves those bits."""
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from ncorr import (
    CLASSICAL,
    DEFAULT_TOLERANCES,
    NONCLASSICAL,
    DensityMatrix,
    apply_local_unitaries,
    classify,
    haar_unitary,
    partition_discrepancy,
    random_classical,
    random_density,
    random_local_unitary,
    tensor_product,
    truncation_measure,
)
from ncorr.spectral import cluster_spectrum

TOL = 1e-9

_dims = st.tuples(st.integers(1, 3), st.integers(1, 3))
_seeds = st.integers(0, 14)


def _state(kind: str, dims: tuple[int, int], seed: int) -> DensityMatrix:
    if kind == "random_classical":
        return random_classical(dims, seed=seed).state
    rank = min(2, dims[0] * dims[1]) if kind == "rank2" else None
    return random_density(dims, rank, seed=seed)


_states = st.builds(_state, st.sampled_from(["random", "random_classical", "rank2"]), _dims, _seeds)


def _values(rho: DensityMatrix) -> tuple[float, float, float, float, float]:
    """M, M_A, M_B, F_A and F_B."""
    report = truncation_measure(rho)
    f_a, f_b = partition_discrepancy(rho, "A"), partition_discrepancy(rho, "B")
    return report.value, report.side_a, report.side_b, f_a, f_b


def _swap(rho: DensityMatrix) -> DensityMatrix:
    """The same state with subsystems A and B exchanged."""
    a, b = rho.dims.dA, rho.dims.dB
    mat = rho.mat.reshape(a, b, a, b).transpose(1, 0, 3, 2).reshape(a * b, a * b)
    return DensityMatrix(mat, (b, a))


@given(_states, _seeds)
def test_local_unitaries_keep_measures_and_verdict(rho, seed):
    ua, ub = random_local_unitary(rho.dims, seed=[8, seed])
    rotated = apply_local_unitaries(rho, ua, ub)
    np.testing.assert_allclose(_values(rotated), _values(rho), rtol=0, atol=TOL)
    assert classify(rotated).verdict == classify(rho).verdict


@given(_states)
def test_swapping_sides_swaps_measures_and_keeps_verdict(rho):
    m, m_a, m_b, f_a, f_b = _values(rho)
    swapped = _swap(rho)
    np.testing.assert_allclose(_values(swapped), (m, m_b, m_a, f_b, f_a), rtol=0, atol=TOL)
    assert classify(swapped).verdict == classify(rho).verdict


@given(_dims, _seeds, _dims, _seeds)
def test_tensor_product_of_classical_states_is_not_nonclassical(dims_1, seed_1, dims_2, seed_2):
    rho = tensor_product(random_classical(dims_1, seed=seed_1).state, random_classical(dims_2, seed=seed_2).state)
    assert truncation_measure(rho).value <= DEFAULT_TOLERANCES.measure
    assert classify(rho).verdict != NONCLASSICAL


def _product_state(weights: np.ndarray, rng: np.random.Generator) -> DensityMatrix:
    """The state with the given weights, normalized, in a Haar-random product basis."""
    u = np.kron(haar_unitary(weights.shape[0], rng), haar_unitary(weights.shape[1], rng))
    return DensityMatrix((u * (weights / weights.sum()).reshape(-1)) @ u.conj().T, weights.shape)


def _degenerate(pattern: str, dims: tuple[int, int], seed: int) -> DensityMatrix:
    """Weights p (x) q with a repeated entry on each side, two values, or flat on a product subspace."""
    rng = np.random.default_rng([seed, *dims])
    if pattern == "product":
        p, q = rng.dirichlet(np.ones(dims[0])), rng.dirichlet(np.ones(dims[1]))
        p[1], q[1] = p[0], q[0]
        weights = np.outer(p, q)
    elif pattern == "two-valued":
        weights = np.where(rng.random(dims) < 0.5, *rng.uniform(0.5, 1.5, 2))
    else:
        weights = np.zeros(dims)
        weights[: rng.integers(1, dims[0] + 1), : rng.integers(1, dims[1] + 1)] = 1.0
    return _product_state(weights, rng)


def _near_pair(dims: tuple[int, int], seed: int, k: float) -> DensityMatrix:
    """Dirichlet weights with the second set k tol.deg above the first."""
    rng = np.random.default_rng([seed, *dims])
    w = rng.dirichlet(np.ones(dims[0] * dims[1]))
    gap = k * DEFAULT_TOLERANCES.deg
    w[1] = (w[0] + gap * (1 - w[1])) / (1 - gap)  # w[1] - w[0] = gap once normalized
    return _product_state(w.reshape(dims), rng)


def _near_rows(n: int, seed: int, k: float) -> DensityMatrix:
    """Symmetric n x n weights, so the spectrum is degenerate, with two row sums k tol.deg apart."""
    rng = np.random.default_rng([seed, n])
    m = rng.uniform(0.5, 1.5, (n, n))
    w = (m + m.T) / 2
    r = w.sum(axis=1)
    i, j = (0, 1) if r[0] <= r[1] else (1, 0)
    gap = k * DEFAULT_TOLERANCES.deg
    w[i, i] += (gap * w.sum() + r[j] - r[i]) / (1 - gap)  # row i - row j = gap once normalized
    return _product_state(w, rng)


def _tiny_weight(dims: tuple[int, int], seed: int, k: int, tiny: float) -> DensityMatrix:
    """Dirichlet weights with k of them (at most d - 2) zero and the next one tiny, so the smallest kept
    eigenvalue sits just above the null space."""
    rng = np.random.default_rng([seed, *dims])
    w = rng.dirichlet(np.ones(dims[0] * dims[1]))
    k = min(k, w.size - 2)
    w[: k + 1] = 0
    w[k] = tiny * w.sum() / (1 - tiny)  # w[k] = tiny once normalized
    return _product_state(w.reshape(dims), rng)


def _check_classical(rho: DensityMatrix) -> None:
    """Never NONCLASSICAL, and a CLASSICAL verdict's basis and weights rebuild the state within tol.offdiag."""
    verdict = classify(rho)
    assert verdict.verdict != NONCLASSICAL
    if verdict.verdict == CLASSICAL:
        u = np.kron(verdict.basis_a, verdict.basis_b)
        rebuilt = (u * verdict.weights.reshape(-1)) @ u.conj().T
        assert np.linalg.norm(rebuilt - rho.mat) <= DEFAULT_TOLERANCES.offdiag


_dims_2_4 = st.tuples(st.integers(2, 4), st.integers(2, 4))


@given(st.builds(_degenerate, st.sampled_from(["product", "two-valued", "flat"]), _dims_2_4, _seeds))
def test_degenerate_classical_states(rho):
    _check_classical(rho)


@given(st.builds(_near_pair, _dims_2_4, _seeds, st.sampled_from([2, 5, 10, 30])))
def test_classical_states_with_a_near_degenerate_eigenvalue_pair(rho):
    _check_classical(rho)


@given(st.builds(_near_rows, st.integers(2, 4), _seeds, st.sampled_from([1.5, 2, 5, 10, 30])))
def test_classical_states_with_near_degenerate_reduced_spectra(rho):
    _check_classical(rho)


@given(st.builds(_tiny_weight, _dims_2_4, _seeds, st.integers(1, 14), st.sampled_from([2e-10, 5e-10, 1e-9, 1e-8])))
def test_classical_states_with_an_eigenvalue_next_to_the_null_space(rho):
    _check_classical(rho)


def _perturbed(dims: tuple[int, int], seed: int, size: float) -> DensityMatrix:
    """A random_classical state plus a random traceless Hermitian matrix of spectral norm size."""
    rho = random_classical(dims, seed=seed).state
    rng = np.random.default_rng([seed, *dims])
    d = rho.dims.total
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = h + h.conj().T
    h -= np.trace(h) / d * np.eye(d)
    return DensityMatrix(rho.mat + size * h / np.linalg.norm(h, 2), rho.dims)


@given(st.builds(_perturbed, _dims.filter(lambda dims: dims[0] * dims[1] >= 2), _seeds, st.sampled_from([1e-13, 1e-12, 1e-11])))
def test_classical_states_perturbed_far_below_deg_keep_m_below_tol_measure(rho):
    assert truncation_measure(rho).value < DEFAULT_TOLERANCES.measure


def _chained(dims: tuple[int, int], seed: int, k: float) -> tuple[DensityMatrix, float]:
    """A state in a Haar-random product basis with three weights k tol.deg apart, and the middle one."""
    rng = np.random.default_rng([seed, *dims])
    gap = k * DEFAULT_TOLERANCES.deg
    base = rng.uniform(0.05, 0.2)
    rest = rng.dirichlet(np.ones(dims[0] * dims[1] - 3)) * (1 - 3 * base - 3 * gap)
    w = np.concatenate([[base, base + gap, base + 2 * gap], rest])
    return _product_state(w.reshape(dims), rng), base + gap


_dims_chain = st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 4)])


@given(st.builds(_chained, _dims_chain, st.integers(0, 19), st.sampled_from([0.5, 0.9, 0.99])))
def test_eigenvalues_chained_just_under_deg_form_one_cluster_and_keep_m_zero(chained):
    """Each gap is under tol.deg, the two together at least tol.deg, yet the three share one cluster,
    whose reduced spectra are multiples of its mean, so M stays at rounding level."""
    rho, middle = chained
    (cluster,) = [c for c in cluster_spectrum(rho).clusters if abs(c.eta - middle) <= DEFAULT_TOLERANCES.deg]
    assert cluster.multiplicity == 3
    assert truncation_measure(rho).value < DEFAULT_TOLERANCES.measure
