"""Catalog of reference states and seeded random state generators."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DomainError, MalformedInputError
from .linalg import BipartiteDims, DensityMatrix, tensor_product


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


def projector(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


def varsigma() -> DensityMatrix:
    """Two-qubit mixture of |00> and |1+>, separable with no product eigenbasis."""
    k0, k1, kp = ket(0, 2), ket(1, 2), plus_ket(2)
    mat = (projector(np.kron(k0, k0)) + projector(np.kron(k1, kp))) / 2
    return DensityMatrix(mat, BipartiteDims(2, 2))


def sigma() -> DensityMatrix:
    """Two-qubit rank-3 mixture of |00>, |01>, |1+> with weights 1:2:3."""
    k0, k1, kp = ket(0, 2), ket(1, 2), plus_ket(2)
    mat = (
        projector(np.kron(k0, k0))
        + 2 * projector(np.kron(k0, k1))
        + 3 * projector(np.kron(k1, kp))
    ) / 6
    return DensityMatrix(mat, BipartiteDims(2, 2))


def _phi() -> np.ndarray:
    return (np.kron(ket(0, 2), ket(0, 2)) + np.kron(ket(1, 2), ket(1, 2))) / math.sqrt(2)


def sigma_prime() -> DensityMatrix:
    """Maximally entangled component at weight 1/2 plus |01>, |10> at 1/4 each."""
    k0, k1 = ket(0, 2), ket(1, 2)
    mat = projector(_phi()) / 2 + (projector(np.kron(k0, k1)) + projector(np.kron(k1, k0))) / 4
    return DensityMatrix(mat, BipartiteDims(2, 2))


def sigma_dprime() -> DensityMatrix:
    """Maximally entangled component at weight 1/4 plus |01>, |10> at 3/8 each."""
    k0, k1 = ket(0, 2), ket(1, 2)
    mat = projector(_phi()) / 4 + 3 * (projector(np.kron(k0, k1)) + projector(np.kron(k1, k0))) / 8
    return DensityMatrix(mat, BipartiteDims(2, 2))


def tau() -> DensityMatrix:
    """Two-qutrit mixture of the three symmetric pair states, entangled yet measure-zero."""
    vecs = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        vecs.append((np.kron(ket(i, 3), ket(j, 3)) + np.kron(ket(j, 3), ket(i, 3))) / math.sqrt(2))
    mat = sum(projector(v) for v in vecs) / 3
    return DensityMatrix(mat, BipartiteDims(3, 3))


def zeta() -> DensityMatrix:
    """Two-ququart mixture of |00>, |+2>, |2+>, |33> at weight 1/4 each."""
    k0, k2, k3, kp = ket(0, 4), ket(2, 4), ket(3, 4), plus_ket(4)
    mat = (
        projector(np.kron(k0, k0))
        + projector(np.kron(kp, k2))
        + projector(np.kron(k2, kp))
        + projector(np.kron(k3, k3))
    ) / 4
    return DensityMatrix(mat, BipartiteDims(4, 4))


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
    ua = haar_unitary(4, np.random.default_rng(seed_a))
    ub = haar_unitary(4, np.random.default_rng(seed_b))
    return apply_local_unitaries(zeta(), ua, ub)


def xi() -> DensityMatrix:
    """Two copies of sigma as one 4x4-bipartite state (first subsystems vs second)."""
    return tensor_product(sigma(), sigma())


def xi_prime() -> DensityMatrix:
    """Two copies of sigma_dprime as one 4x4-bipartite state."""
    return tensor_product(sigma_dprime(), sigma_dprime())


def bell(n: int = 2) -> DensityMatrix:
    """Maximally entangled pure state sum_i |ii> / sqrt(n) on n x n."""
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


def kappa(c_x: float, c_y: float, c_z: float, tol: Tolerances = DEFAULT_TOLERANCES) -> DensityMatrix:
    """Two-qubit state (I + c_x XX + c_y YY + c_z ZZ) / 4, diagonal in the Bell basis.

    Eigenvalues are (1 - c_x - c_y - c_z)/4, (1 - c_x + c_y + c_z)/4,
    (1 + c_x - c_y + c_z)/4 and (1 + c_x + c_y - c_z)/4; the coefficients must
    keep all four nonnegative.
    """
    mat = np.eye(4, dtype=np.complex128)
    for c, name in ((c_x, "x"), (c_y, "y"), (c_z, "z")):
        mat += c * np.kron(_PAULI[name], _PAULI[name])
    mat /= 4
    evals = kappa_eigenvalues(c_x, c_y, c_z)
    if min(evals) < -tol.psd:
        raise DomainError(f"coefficients ({c_x}, {c_y}, {c_z}) give a negative eigenvalue {min(evals)}")
    return DensityMatrix(mat, BipartiteDims(2, 2))


def kappa_eigenvalues(c_x: float, c_y: float, c_z: float) -> tuple[float, float, float, float]:
    """Closed-form spectrum of kappa, in Bell-vector order."""
    return (
        (1 - c_x - c_y - c_z) / 4,
        (1 - c_x + c_y + c_z) / 4,
        (1 + c_x - c_y + c_z) / 4,
        (1 + c_x + c_y - c_z) / 4,
    )


def bell_basis() -> np.ndarray:
    """Columns are the four Bell vectors, ordered to match kappa_eigenvalues."""
    k0, k1 = ket(0, 2), ket(1, 2)
    cols = [
        (np.kron(k0, k1) - np.kron(k1, k0)) / math.sqrt(2),
        (np.kron(k0, k0) - np.kron(k1, k1)) / math.sqrt(2),
        (np.kron(k0, k0) + np.kron(k1, k1)) / math.sqrt(2),
        (np.kron(k0, k1) + np.kron(k1, k0)) / math.sqrt(2),
    ]
    return np.column_stack(cols)


def random_density(dims, rank: int | None = None, seed: int = 0) -> DensityMatrix:
    """Seeded random density matrix of the given rank (full rank by default)."""
    dims = BipartiteDims(*dims) if not isinstance(dims, BipartiteDims) else dims
    d = dims.total
    rank = d if rank is None else int(rank)
    if not 1 <= rank <= d:
        raise DomainError(f"rank must lie in [1, {d}], got {rank}")
    rng = np.random.default_rng(seed)
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
    dims = BipartiteDims(*dims) if not isinstance(dims, BipartiteDims) else dims
    rng = np.random.default_rng(seed)
    ua = haar_unitary(dims.dA, rng)
    ub = haar_unitary(dims.dB, rng)
    weights = rng.dirichlet(np.ones(dims.total)).reshape(dims.dA, dims.dB)
    u = np.kron(ua, ub)
    mat = (u * weights.reshape(-1)) @ u.conj().T
    return ClassicalSample(DensityMatrix(mat, dims), ua, ub, weights)


def random_local_unitary(dims, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Seeded pair of independent Haar unitaries, one per subsystem."""
    dims = BipartiteDims(*dims) if not isinstance(dims, BipartiteDims) else dims
    rng = np.random.default_rng(seed)
    return haar_unitary(dims.dA, rng), haar_unitary(dims.dB, rng)


@dataclass(frozen=True)
class StateSpec:
    """Catalog state request: a name plus numeric parameters."""

    name: str
    params: Mapping[str, float] = field(default_factory=dict)


def _param(params: Mapping[str, float], key: str, default=None):
    if key in params:
        return params[key]
    if default is None:
        raise MalformedInputError(f"missing required parameter {key!r}")
    return default


def _int_param(params: Mapping[str, float], key: str, default=None) -> int:
    """An integer parameter, given as an int or as a finite, integral float."""
    value = _param(params, key, default)
    if isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer()):
        return int(value)
    raise MalformedInputError(f"parameter {key!r} must be an integer, got {value!r}")


def _dims(params: Mapping[str, float]) -> BipartiteDims:
    return BipartiteDims(_int_param(params, "dA", 2), _int_param(params, "dB", 2))


def _random(params: Mapping[str, float]) -> DensityMatrix:
    rank = _int_param(params, "rank") if "rank" in params else None
    return random_density(_dims(params), rank, _int_param(params, "seed", 0))


_BUILDERS = {
    "varsigma": lambda p: varsigma(),
    "sigma": lambda p: sigma(),
    "sigma_prime": lambda p: sigma_prime(),
    "sigma_dprime": lambda p: sigma_dprime(),
    "tau": lambda p: tau(),
    "zeta": lambda p: zeta(),
    "zeta_prime": lambda p: zeta_prime(_int_param(p, "seed_a", 0), _int_param(p, "seed_b", 1)),
    "xi": lambda p: xi(),
    "xi_prime": lambda p: xi_prime(),
    "bell": lambda p: bell(_int_param(p, "N", 2)),
    "phi_p": lambda p: phi_p(float(_param(p, "p"))),
    "kappa": lambda p: kappa(*(float(_param(p, c, 0.0)) for c in ("c_x", "c_y", "c_z"))),
    "random": _random,
    "random_classical": lambda p: random_classical(_dims(p), _int_param(p, "seed", 0)).state,
}

CATALOG_NAMES = tuple(_BUILDERS)


def build(spec: StateSpec) -> DensityMatrix:
    """Construct a catalog state from its spec; unknown names are rejected."""
    builder = _BUILDERS.get(spec.name)
    if builder is None:
        raise MalformedInputError(f"unknown state name {spec.name!r}")
    return builder(dict(spec.params))
