"""The paradigm's invariances as properties: local unitaries, swapping A and B,
and tensor products of classical states. They hold whatever the last bits of
M and F are, so they keep guarding when a kernel change moves those bits."""
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from ncorr import (
    DEFAULT_TOLERANCES,
    NONCLASSICAL,
    DensityMatrix,
    apply_local_unitaries,
    classify,
    partition_discrepancy,
    random_classical,
    random_density,
    random_local_unitary,
    tensor_product,
    truncation_measure,
)

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
