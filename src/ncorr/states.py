"""Catalog of reference states and seeded random state generators."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import DomainError, MalformedInputError
from .linalg import BipartiteDims, DensityMatrix, _as_dims, projector, tensor_product


def ket(index: int, dim: int) -> np.ndarray:
    """Computational basis column vector |index> in the given dimension."""
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return v


def plus_ket(dim: int) -> np.ndarray:
    """(|0> + |1>) / sqrt(2), embedded in the given dimension."""
    v = np.zeros(dim, dtype=np.complex128)
    v[0] = v[1] = 1 / math.sqrt(2)
    return v


def _mixture(dims: tuple[int, int], denominator: int, *terms: tuple[int, np.ndarray]) -> DensityMatrix:
    """The state sum_k w_k |v_k><v_k| / denominator on dims, over the (w_k, v_k) terms."""
    # sum() starts from the integer 0, which would turn a -0.0 of the first
    # term into +0.0; no catalog projector holds one (tests pin their bits).
    return DensityMatrix(sum(w * projector(v) for w, v in terms) / denominator, BipartiteDims(*dims))


def varsigma() -> DensityMatrix:
    """Two-qubit mixture of |00> and |1+>, separable with no product eigenbasis."""
    k0, k1, kp = ket(0, 2), ket(1, 2), plus_ket(2)
    return _mixture((2, 2), 2, (1, np.kron(k0, k0)), (1, np.kron(k1, kp)))


def sigma() -> DensityMatrix:
    """Two-qubit rank-3 mixture of |00>, |01>, |1+> with weights 1:2:3."""
    k0, k1, kp = ket(0, 2), ket(1, 2), plus_ket(2)
    return _mixture((2, 2), 6, (1, np.kron(k0, k0)), (2, np.kron(k0, k1)), (3, np.kron(k1, kp)))


def _phi() -> np.ndarray:
    return (np.kron(ket(0, 2), ket(0, 2)) + np.kron(ket(1, 2), ket(1, 2))) / math.sqrt(2)


def sigma_prime() -> DensityMatrix:
    """Maximally entangled component at weight 1/2 plus |01>, |10> at 1/4 each."""
    k0, k1 = ket(0, 2), ket(1, 2)
    return _mixture((2, 2), 4, (2, _phi()), (1, np.kron(k0, k1)), (1, np.kron(k1, k0)))


def sigma_dprime() -> DensityMatrix:
    """Maximally entangled component at weight 1/4 plus |01>, |10> at 3/8 each."""
    k0, k1 = ket(0, 2), ket(1, 2)
    return _mixture((2, 2), 8, (2, _phi()), (3, np.kron(k0, k1)), (3, np.kron(k1, k0)))


def tau() -> DensityMatrix:
    """Two-qutrit mixture of the three symmetric pair states, entangled yet measure-zero."""
    k = [ket(i, 3) for i in range(3)]
    pairs = ((np.kron(k[i], k[j]) + np.kron(k[j], k[i])) / math.sqrt(2) for i, j in ((0, 1), (1, 2), (2, 0)))
    return _mixture((3, 3), 3, *((1, v) for v in pairs))


def zeta() -> DensityMatrix:
    """Two-ququart mixture of |00>, |+2>, |2+>, |33> at weight 1/4 each."""
    k0, k2, k3, kp = ket(0, 4), ket(2, 4), ket(3, 4), plus_ket(4)
    return _mixture((4, 4), 4, (1, np.kron(k0, k0)), (1, np.kron(kp, k2)), (1, np.kron(k2, kp)), (1, np.kron(k3, k3)))


def _rng(seed) -> np.random.Generator:
    """np.random.default_rng(seed); a negative, non-integer or bool seed, or a
    sequence holding a bool (which numpy reads as 0 or 1), is a DomainError."""
    if not _holds_bool(seed):
        try:
            return np.random.default_rng(seed)
        except (TypeError, ValueError):
            pass
    raise DomainError(f"seed must be a nonnegative integer or a sequence of them, got {seed!r}")


def _holds_bool(seed) -> bool:
    if isinstance(seed, (list, tuple)):
        return any(map(_holds_bool, seed))
    return isinstance(seed, bool)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def apply_local_unitaries(rho: DensityMatrix, ua: np.ndarray, ub: np.ndarray) -> DensityMatrix:
    """Conjugate a state by a product unitary ua (x) ub."""
    u = np.kron(ua, ub)
    return DensityMatrix(u @ rho.mat @ u.conj().T, rho.dims)


def zeta_prime(seed_a: int = 0, seed_b: int = 1) -> DensityMatrix:
    """zeta conjugated by seeded Haar-random local unitaries on both sides."""
    ua = haar_unitary(4, _rng(seed_a))
    ub = haar_unitary(4, _rng(seed_b))
    return apply_local_unitaries(zeta(), ua, ub)


def xi() -> DensityMatrix:
    """Two copies of sigma as one 4x4-bipartite state (first subsystems vs second)."""
    return tensor_product(sigma(), sigma())


def xi_prime() -> DensityMatrix:
    """Two copies of sigma_dprime as one 4x4-bipartite state."""
    return tensor_product(sigma_dprime(), sigma_dprime())


def bell(n: int = 2) -> DensityMatrix:
    """Maximally entangled pure state sum_i |ii> / sqrt(n) on n x n."""
    n = _as_int(n, "n")
    if n < 2:
        raise DomainError(f"bell needs n >= 2, got {n}")
    vec = np.zeros(n * n, dtype=np.complex128)
    vec[:: n + 1] = 1 / math.sqrt(n)
    return DensityMatrix(projector(vec), BipartiteDims(n, n))


def phi_p(p: float) -> DensityMatrix:
    """Pure two-qubit state sqrt(p)|00> + sqrt(1-p)|11>."""
    if not 0 <= p <= 1:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    vec = np.zeros(4, dtype=np.complex128)
    vec[0] = math.sqrt(p)
    vec[3] = math.sqrt(1 - p)
    return DensityMatrix(projector(vec), BipartiteDims(2, 2))


_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def kappa(c_x: float, c_y: float, c_z: float) -> DensityMatrix:
    """Two-qubit state (I + c_x XX + c_y YY + c_z ZZ) / 4, diagonal in the Bell basis.

    Eigenvalues are (1 - c_x - c_y - c_z)/4, (1 - c_x + c_y + c_z)/4,
    (1 + c_x - c_y + c_z)/4 and (1 + c_x + c_y - c_z)/4; the coefficients must
    keep all four nonnegative.
    """
    evals = kappa_eigenvalues(c_x, c_y, c_z)
    if not all(e >= -DEFAULT_TOLERANCES.psd for e in evals):  # a NaN eigenvalue fails too
        raise DomainError(f"coefficients (c_x, c_y, c_z) = ({c_x}, {c_y}, {c_z}) give a negative eigenvalue or NaN: {evals}")
    mat = np.eye(4, dtype=np.complex128)
    for c, name in ((c_x, "x"), (c_y, "y"), (c_z, "z")):
        mat += c * np.kron(_PAULI[name], _PAULI[name])
    mat /= 4
    return DensityMatrix(mat, BipartiteDims(2, 2))


def kappa_eigenvalues(c_x: float, c_y: float, c_z: float) -> tuple[float, float, float, float]:
    """Closed-form spectrum of kappa, in Bell-vector order."""
    return (
        (1 - c_x - c_y - c_z) / 4,
        (1 - c_x + c_y + c_z) / 4,
        (1 + c_x - c_y + c_z) / 4,
        (1 + c_x + c_y - c_z) / 4,
    )


def _as_int(value, what: str) -> int:
    """value given as an int or as a finite, integral float; a bool is neither."""
    if not isinstance(value, bool) and (
        isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer())
    ):
        return int(value)
    raise MalformedInputError(f"{what} must be an integer, got {value!r}")


def _as_real(value, what: str) -> float:
    """value given as a real number; a bool is not one."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise MalformedInputError(f"{what} must be a real number, got {value!r}")


def random_density(dims, rank: int | None = None, seed: int = 0) -> DensityMatrix:
    """Seeded random density matrix of the given rank (full rank by default)."""
    dims = _as_dims(dims)
    d = dims.total
    rank = d if rank is None else _as_int(rank, "rank")
    if not 1 <= rank <= d:
        raise DomainError(f"rank must lie in [1, {d}], got {rank}")
    rng = _rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = g @ g.conj().T
    mat /= mat.trace().real
    return DensityMatrix(mat, dims)


class ClassicalSample(NamedTuple):
    """Random product-eigenbasis state with its witnessing data."""

    state: DensityMatrix
    basis_a: np.ndarray
    basis_b: np.ndarray
    weights: np.ndarray  # shape (dA, dB), weights[j, k] pairs column j with column k


def random_classical(dims, seed: int = 0) -> ClassicalSample:
    """Seeded random state diagonal in a Haar-random product basis."""
    dims = _as_dims(dims)
    rng = _rng(seed)
    ua = haar_unitary(dims.dA, rng)
    ub = haar_unitary(dims.dB, rng)
    weights = rng.dirichlet(np.ones(dims.total)).reshape(dims.dA, dims.dB)
    u = np.kron(ua, ub)
    return ClassicalSample(DensityMatrix((u * weights.reshape(-1)) @ u.conj().T, dims), ua, ub, weights)


def random_local_unitary(dims, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Seeded pair of independent Haar unitaries, one per subsystem."""
    dims = _as_dims(dims)
    rng = _rng(seed)
    return haar_unitary(dims.dA, rng), haar_unitary(dims.dB, rng)


@dataclass(frozen=True)
class StateSpec:
    """Catalog state request: a name plus numeric parameters."""

    name: str
    params: Mapping[str, float] = field(default_factory=dict)


def _param(params: dict[str, float], key: str, read, default=None):
    """Take key out of params through read, _as_int or _as_real; build rejects any key no builder takes."""
    if key not in params and default is None:
        raise MalformedInputError(f"missing required parameter {key!r}")
    return read(params.pop(key, default), f"parameter {key!r}")


def _dims(params: dict[str, float]) -> BipartiteDims:
    return BipartiteDims(_param(params, "dA", _as_int, 2), _param(params, "dB", _as_int, 2))


def _random(params: dict[str, float]) -> DensityMatrix:
    rank = _param(params, "rank", _as_int) if "rank" in params else None
    return random_density(_dims(params), rank, _param(params, "seed", _as_int, 0))


_BUILDERS = {
    "varsigma": lambda p: varsigma(),
    "sigma": lambda p: sigma(),
    "sigma_prime": lambda p: sigma_prime(),
    "sigma_dprime": lambda p: sigma_dprime(),
    "tau": lambda p: tau(),
    "zeta": lambda p: zeta(),
    "zeta_prime": lambda p: zeta_prime(_param(p, "seed_a", _as_int, 0), _param(p, "seed_b", _as_int, 1)),
    "xi": lambda p: xi(),
    "xi_prime": lambda p: xi_prime(),
    "bell": lambda p: bell(_param(p, "N", _as_int, 2)),
    "phi_p": lambda p: phi_p(_param(p, "p", _as_real)),
    "kappa": lambda p: kappa(*(_param(p, c, _as_real, 0.0) for c in ("c_x", "c_y", "c_z"))),
    "random": _random,
    "random_classical": lambda p: random_classical(_dims(p), _param(p, "seed", _as_int, 0)).state,
}

CATALOG_NAMES = tuple(_BUILDERS)


def build(spec: StateSpec) -> DensityMatrix:
    """Construct a catalog state from its spec; unknown names and parameters are rejected."""
    builder = _BUILDERS.get(spec.name)
    if builder is None:
        raise MalformedInputError(f"unknown state name {spec.name!r}")
    params = dict(spec.params)
    state = builder(params)
    if params:
        raise MalformedInputError(f"state {spec.name!r} takes no parameter {', '.join(map(repr, sorted(params)))}")
    return state
