"""Hand-derived spectra and an independent measure evaluator.

Every table below was worked out by hand from the state definitions: the
distinct eigenvalues, their multiplicities, and the nonzero eigenvalues of
each truncated component's two reductions. The evaluator recomputes the
measure directly from these numbers with its own rounding helper, so it
shares no code with the library. An agreement failure therefore points at
the library, not at a common helper.
"""
import functools
import itertools
import json
import math
from fractions import Fraction

import numpy as np

SQRT2 = math.sqrt(2)


def round_to_multiple(x: float, y: float) -> float:
    """Multiple of y nearest to x; half-way cases go to the lower multiple."""
    if y == 0:
        return 0.0
    ratio = x / y
    lower = math.floor(ratio)
    if ratio - lower <= 0.5 + 1e-12:
        return lower * y
    return (lower + 1) * y


def side_value(components) -> float:
    """Sum of -|e - rounded(e)| * log2(e / (eta * mult)) over one side's spectra."""
    total = 0.0
    for eta, mult, spectrum in components:
        quota = eta * mult
        for lam in spectrum:
            predicted = round_to_multiple(lam, eta)
            total += -abs(lam - predicted) * math.log2(lam / quota)
    return total


def measure_value(table):
    """(mean, side A, side B) measure from a table of
    (eta, multiplicity, reduced spectrum A, reduced spectrum B) rows."""
    a = side_value((eta, m, sa) for eta, m, sa, _ in table)
    b = side_value((eta, m, sb) for eta, m, _, sb in table)
    return (a + b) / 2, a, b


# Mixture of |00> and |1+> at weight 1/2: one doubly degenerate eigenvalue.
# Reduction A is I/2; reduction B is (|0><0| + |+><+|)/2 with spectrum
# (1 -+ 1/sqrt(2))/2.
VARSIGMA = [
    (1 / 2, 2, [1 / 2, 1 / 2], [(2 - SQRT2) / 4, (2 + SQRT2) / 4]),
]

# |00>, |01>, |1+> at weights 1/6, 1/3, 1/2: rank 3, every eigenvector a
# product vector, so each rank-1 truncation reduces to a single eigenvalue
# eta on both sides.
SIGMA = [
    (1 / 6, 1, [1 / 6], [1 / 6]),
    (1 / 3, 1, [1 / 3], [1 / 3]),
    (1 / 2, 1, [1 / 2], [1 / 2]),
]

# Maximally entangled vector at weight 1/2 plus |01>, |10> at 1/4: the
# degenerate pair {|01>, |10>} reduces to I/2 scaled by its trace 1/2, and
# the entangled component reduces to I/4 on both sides.
SIGMA_PRIME = [
    (1 / 4, 2, [1 / 4, 1 / 4], [1 / 4, 1 / 4]),
    (1 / 2, 1, [1 / 4, 1 / 4], [1 / 4, 1 / 4]),
]

# Same construction at weights 1/4 (entangled) and 3/8 (pair).
SIGMA_DPRIME = [
    (1 / 4, 1, [1 / 8, 1 / 8], [1 / 8, 1 / 8]),
    (3 / 8, 2, [3 / 8, 3 / 8], [3 / 8, 3 / 8]),
]

# Equal mixture of the three symmetric two-qutrit pair vectors: a single
# triply degenerate eigenvalue whose truncation reduces to I/3 on each side.
TAU = [
    (1 / 3, 3, [1 / 3, 1 / 3, 1 / 3], [1 / 3, 1 / 3, 1 / 3]),
]

# |00>, |+2>, |2+>, |33> at weight 1/4 on 4x4: one quadruple eigenvalue.
# Each reduction is (|0><0| + |+><+| + |2><2| + |3><3|)/4; the {|0>, |+>}
# block contributes (2 -+ sqrt(2))/8 and the rest stays at 1/4.
_ZETA_SIDE = [(2 - SQRT2) / 8, (2 + SQRT2) / 8, 1 / 4, 1 / 4]
ZETA = [
    (1 / 4, 4, list(_ZETA_SIDE), list(_ZETA_SIDE)),
]

# Pairwise products of the three sigma eigenvalues across two copies.
# A-side vectors |0>, |0>, |1> collide for the (1/6, 1/3) pair, merging its
# reduction into a single entry 1/9 = 2 * (1/18); B-side vectors |0>, |1>, |+>
# overlap with |<0|+>|^2 = |<1|+>|^2 = 1/2, splitting those reductions into
# eta * (1 +- 1/2).
XI = [
    (1 / 36, 1, [1 / 36], [1 / 36]),
    (1 / 18, 2, [1 / 9], [1 / 18, 1 / 18]),
    (1 / 12, 2, [1 / 12, 1 / 12], [1 / 8, 1 / 24]),
    (1 / 9, 1, [1 / 9], [1 / 9]),
    (1 / 6, 2, [1 / 6, 1 / 6], [1 / 4, 1 / 12]),
    (1 / 4, 1, [1 / 4], [1 / 4]),
]

# Two copies of sigma_dprime. The (1/4)^2 component is a product of two
# maximally entangled vectors, so it is rank 1 yet reduces to I_4/16; the
# cross terms at 3/32 and the pair-pair terms at 9/64 reduce to exact
# multiples of their eigenvalue.
XI_PRIME = [
    (1 / 16, 1, [1 / 64] * 4, [1 / 64] * 4),
    (3 / 32, 4, [3 / 32] * 4, [3 / 32] * 4),
    (9 / 64, 4, [9 / 64] * 4, [9 / 64] * 4),
]

FIXED_TABLES = {
    "varsigma": VARSIGMA,
    "sigma": SIGMA,
    "sigma_prime": SIGMA_PRIME,
    "sigma_dprime": SIGMA_DPRIME,
    "tau": TAU,
    "zeta": ZETA,
    "zeta_prime": ZETA,  # local unitaries change no spectrum in the table
    "xi": XI,
    "xi_prime": XI_PRIME,
}


def bell_table(n: int):
    """Rank-1 maximally entangled state: reductions are I/n."""
    return [(1.0, 1, [1 / n] * n, [1 / n] * n)]


def phi_table(p: float):
    """sqrt(p)|00> + sqrt(1-p)|11>: reductions are diag(p, 1-p)."""
    if p in (0.0, 1.0):
        return [(1.0, 1, [1.0], [1.0])]
    return [(1.0, 1, [p, 1 - p], [p, 1 - p])]


def kappa_table(c_x: float, c_y: float, c_z: float):
    """Bell-diagonal state: exact-rational clustering of the closed-form
    spectrum; every Bell projector reduces to I/2, so a component of
    eigenvalue eta and multiplicity m reduces to eta * m / 2 twice."""
    cx, cy, cz = (Fraction(c).limit_denominator(10**9) for c in (c_x, c_y, c_z))
    evals = sorted(
        [
            (1 - cx - cy - cz) / 4,
            (1 - cx + cy + cz) / 4,
            (1 + cx - cy + cz) / 4,
            (1 + cx + cy - cz) / 4,
        ]
    )
    table = []
    for eta, group in itertools.groupby(e for e in evals if e > 0):
        mult = len(list(group))
        half = [float(eta * mult / 2)] * 2
        table.append((float(eta), mult, half, half))
    return table


# Closed forms, each derived by collapsing the table sums by hand.
M_VARSIGMA = 3 * (2 - SQRT2) / 8
M_B_VARSIGMA = 3 * (2 - SQRT2) / 4
M_SIGMA_PRIME = 1 / 2
M_SIGMA_DPRIME = 1 / 4
M_ZETA = 5 * (2 - SQRT2) / 8
M_B_XI = 1 / 4 + math.log2(4 / 3) / 8
M_XI = M_B_XI / 2
M_XI_PRIME = 1 / 8


def binary_entropy(x: float) -> float:
    return -(x * math.log2(x) + (1 - x) * math.log2(1 - x))


# Larger-side partition value for sigma: the genuine B-reduction spectrum is
# (6 -+ sqrt(10))/12, and the best grouping of the global spectrum
# {1/6, 1/3, 1/2, 0} pairs {1/6, 1/2} with {1/3, 0}, leaving H(1/3) minus
# the genuine binary entropy at (6 - sqrt(10))/12.
G_SIGMA = binary_entropy(1 / 3) - binary_entropy((6 - math.sqrt(10)) / 12)


def m_pure(p: float) -> float:
    """Measure of sqrt(p)|00> + sqrt(1-p)|11>, from the table by hand."""
    if p <= 0 or p >= 1:
        return 0.0
    return -min(p, 1 - p) * math.log2(p * (1 - p))


def entropy_term_sum(values) -> float:
    return math.fsum(v * math.log2(v) for v in values if v > 0)


def brute_force_partition_minimum(global_spectrum, genuine_spectrum, n_groups, group_size):
    """Minimal |mimicked - genuine| entropy-term gap over every grouping.

    Scans all permutations and chops each into consecutive runs; wildly
    redundant, but it shares no enumeration logic with the library.
    """
    genuine = entropy_term_sum(max(float(v), 0.0) for v in genuine_spectrum)
    order = range(len(global_spectrum))
    best = math.inf
    for perm in itertools.permutations(order):
        sums = (
            sum(max(float(global_spectrum[i]), 0.0) for i in perm[g * group_size : (g + 1) * group_size])
            for g in range(n_groups)
        )
        best = min(best, abs(entropy_term_sum(sums) - genuine))
    return best


def _equal_partitions(indices, group_size):
    """Unordered partitions of indices into groups of group_size; the lowest
    remaining index anchors each group, so each appears exactly once."""
    if not indices:
        yield ()
        return
    first, rest = indices[0], indices[1:]
    for combo in itertools.combinations(rest, group_size - 1):
        taken = set(combo)
        remaining = tuple(i for i in rest if i not in taken)
        for tail in _equal_partitions(remaining, group_size):
            yield ((first,) + combo,) + tail


def _xlog2x(v: float) -> float:
    return v * math.log2(v) if v > 0 else 0.0


def enumerated_partition_minimum(global_spectrum, genuine_spectrum, n_groups, group_size):
    """The library's grouping search before it was vectorized, kept as the
    reference it must equal bit for bit: one grouping at a time, each group
    summed by numpy in ascending index order and scored with one math.fsum.
    Slow (about 28 us a grouping), so cross-checks stay at total dimension
    12 or less."""
    evals = np.maximum(np.asarray(global_spectrum, dtype=float), 0.0)
    genuine_term = math.fsum(_xlog2x(e) for e in sorted(max(float(g), 0.0) for g in genuine_spectrum))
    best = math.inf
    for partition in _equal_partitions(tuple(range(n_groups * group_size)), group_size):
        mimicked = math.fsum(_xlog2x(float(evals[list(g)].sum())) for g in partition)
        best = min(best, abs(mimicked - genuine_term))
    return best


@functools.lru_cache(maxsize=None)
def colex_subsets(n, g):
    """The library's table of g-subsets before it was built with numpy, kept
    as its reference: itertools.combinations sorted by the reversed tuple,
    so row r is the subset of colex rank r."""
    rows = sorted(itertools.combinations(range(n), g), key=lambda c: c[::-1])
    return np.array(rows, dtype=np.intp).reshape(len(rows), g)


@functools.lru_cache(maxsize=None)
def grouping_tables(n, g):
    """The library's grouping tables (maps, rows) before they were built in
    their final dtypes, kept as their reference: a per-anchor comprehension
    for the complements and intp ranks cast at the end. Building (18, 2)
    this way peaks at about 173 MB of transient intp arrays."""
    subsets = colex_subsets(n, g)
    anchors = np.flatnonzero(subsets[:, 0] == 0)
    rest = np.array([[i for i in range(n) if i not in s] for s in subsets[anchors].tolist()], dtype=np.intp)
    local = np.zeros((len(anchors), math.comb(n - g, g)), dtype=np.intp)
    for i, column in enumerate(colex_subsets(n - g, g).T):
        local += np.array([math.comb(x, i + 1) for x in range(n)])[rest[:, column]]
    maps = np.column_stack([local, anchors]).astype(np.min_scalar_type(len(subsets)))
    tails = np.zeros((1, 0), dtype=np.intp)
    if n > g:
        tail_maps, tail_rows = grouping_tables(n - g, g)
        tails = tail_maps[:, tail_rows].reshape(-1, n // g - 1)
    rows = np.column_stack([tails, np.full(len(tails), local.shape[1])])
    return maps, rows.astype(np.min_scalar_type(local.shape[1]))


def dense_component_spectra(cluster, dims, tol):
    """The library's reduced spectra of one truncated component before they
    came from eigenvector slices, kept as their reference: the dense d x d
    matrix eta * V V^dag, both partial traces, eigh, the rank cutoff and a
    descending sort. Holds d^2 numbers per component, so a full-rank state
    costs O(d^3) memory. Returns (spectrum_a, spectrum_b).

    The library must equal it bit for bit on rank-one eigenspaces and on the
    catalog. A generic eigenspace of multiplicity m > 1 sums m products per
    matrix entry, in an order the BLAS picks per matrix shape, so there the
    two agree to a few ulps."""
    v = cluster.vectors
    r = (cluster.eta * (v @ v.conj().T)).reshape(dims.dA, dims.dB, dims.dA, dims.dB)
    spectra = []
    for reduced in (np.einsum("abcb->ac", r), np.einsum("abad->bd", r)):
        w = np.linalg.eigh(reduced)[0]
        spectra.append(np.sort(w[w > tol.rank])[::-1])
    return tuple(spectra)


def per_vector_schmidt_forms(vectors, columns, dims, tol):
    """detect_nondegenerate_global's Schmidt step before it stacked the SVDs:
    schmidt_decomposition on one eigenvector at a time. Yields what the
    library's _schmidt_forms yields, (coefficients, first A vector, first B
    vector) per listed column in order; with it in _schmidt_forms' place the
    detector must return the same outcome, bit for bit."""
    from ncorr.measures import schmidt_decomposition

    for vec in vectors[:, columns].T:
        schmidt = schmidt_decomposition(vec, dims, tol)
        yield schmidt.coefficients, schmidt.vectors_a[:, 0], schmidt.vectors_b[:, 0]


def kron_commutator_norms(rho):
    """detect_commutator's two witnesses before it multiplied on the block
    view: ||[rho, rho_A (x) 1]||_F and ||[rho, 1 (x) rho_B]||_F, each from the
    d x d Kronecker operator and both d x d x d products. The library must
    agree with them to within a few d eps ||K||_F ||rho||_F; it makes the
    same two products per side, so a non-Hermitian rho (up to tol.herm) does
    not change that."""
    mat, dims = rho.mat, rho.dims
    kron_a = np.kron(rho.reduced["A"], np.eye(dims.dB))
    kron_b = np.kron(np.eye(dims.dA), rho.reduced["B"])
    return tuple(float(np.linalg.norm(mat @ k - k @ mat, "fro")) for k in (kron_a, kron_b))


def per_entry_measure_side(components, side, tie=1e-9):
    """truncation_measure_side before it scored each entry inline: per
    component, nearest_integer_multiple on every entry, then surprisal_term on
    every entry, each checking its own arguments. The library's total and
    every contribution must equal it by float.hex and, on an entry out of
    domain, raise its DomainError with the same message. tie is
    Tolerances.tie, whose default it repeats."""
    from ncorr.measures import nearest_integer_multiple, surprisal_term

    contribs = []
    for comp in components:
        spectrum = comp.spectrum_a if side == "A" else comp.spectrum_b
        quota = comp.eta * comp.multiplicity
        predicted = [nearest_integer_multiple(float(lam), comp.eta, tie) for lam in spectrum]
        contribs.append(math.fsum(surprisal_term(float(x), y, quota) for x, y in zip(spectrum, predicted)))
    return math.fsum(contribs), tuple(contribs)


def kron_product_basis(mat, basis_a, basis_b):
    """detect._in_product_basis before it rotated by mode products: the d x d
    U = kron(basis_a, basis_b) and both d x d x d products U^dag mat U. Returns
    the (ka, kb) weights, the diagonal, and the residual, the Frobenius norm of
    the rest. The library must agree with both to within a few d^1.5 eps
    ||mat||_F; it rotates each index of mat by its own side's basis."""
    u = np.kron(basis_a, basis_b)
    rotated = u.conj().T @ mat @ u
    diagonal = np.diagonal(rotated)
    residual = float(np.linalg.norm(rotated - np.diag(diagonal), "fro"))
    return diagonal.real.reshape(basis_a.shape[1], basis_b.shape[1]), residual


def per_node_dumps(obj):
    """The report writer before it appended to one list: one recursive call
    per node, each key and string through json.dumps, each number through
    format_float. The library's dumps must give the same text and, on a value
    it cannot write, the same MalformedInputError message. This writer gives
    a key that is not a string json.dumps's text for it, which is not JSON;
    the library refuses such a key."""
    from ncorr.errors import MalformedInputError
    from ncorr.io import format_float

    def dump(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            items = ",\n".join(f"{pad}  {json.dumps(k)}: {dump(v, indent + 1)}" for k, v in obj.items())
            return "{\n" + items + "\n" + pad + "}"
        if isinstance(obj, (list, tuple)):
            if all(not isinstance(v, (dict, list, tuple)) for v in obj):
                return "[" + ", ".join(dump(v, indent) for v in obj) + "]"
            items = ",\n".join(f"{pad}  {dump(v, indent + 1)}" for v in obj)
            return "[\n" + items + "\n" + pad + "]"
        if isinstance(obj, bool) or obj is None:
            return json.dumps(obj)
        if isinstance(obj, (int, np.integer)):
            return str(int(obj))
        if isinstance(obj, (float, np.floating)):
            return format_float(obj)
        if isinstance(obj, str):
            return json.dumps(obj)
        kind = type(obj)
        name = kind.__name__ if kind.__module__ == "builtins" else f"{kind.__module__}.{kind.__name__}"
        raise MalformedInputError(f"cannot serialize {name}")

    return dump(obj, 0) + "\n"


def per_entry_state_file_text(mat, dims):
    """The state-file serializer before it filled one template: a nested list
    of [re, im] pairs through per_node_dumps, so each number is rendered by
    format_float. The library's state_file_text must give the same text."""
    matrix = [[[z.real, z.imag] for z in row] for row in mat]
    return per_node_dumps({"dims": [dims.dA, dims.dB], "matrix": matrix})


def per_entry_parse_state_text(text):
    """The state-file parser before it converted the matrix in one pass: one
    Python step per entry. The library's parse_state_text must give a
    bit-identical matrix and, on a malformed file, the same message."""
    from ncorr.errors import MalformedInputError
    from ncorr.linalg import BipartiteDims, DensityMatrix

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedInputError(f"invalid state file: {e.msg} at line {e.lineno} column {e.colno}") from e
    if not isinstance(doc, dict):
        raise MalformedInputError("state file must be a JSON object")
    for key in ("dims", "matrix"):
        if key not in doc:
            raise MalformedInputError(f"state file is missing the {key!r} field")
    dims_field = doc["dims"]
    if (
        not isinstance(dims_field, list)
        or len(dims_field) != 2
        or not all(isinstance(d, int) and d >= 1 for d in dims_field)
    ):
        raise MalformedInputError(f"'dims' must be a pair of positive integers, got {dims_field!r}")
    dims = BipartiteDims(dims_field[0], dims_field[1])
    d = dims.total
    rows = doc["matrix"]
    if not isinstance(rows, list) or len(rows) != d:
        raise MalformedInputError(f"'matrix' must have {d} rows, got {len(rows) if isinstance(rows, list) else type(rows).__name__}")
    mat = np.zeros((d, d), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != d:
            raise MalformedInputError(f"matrix row {i} must have {d} entries, got {len(row) if isinstance(row, list) else type(row).__name__}")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
            ):
                raise MalformedInputError(f"matrix entry ({i}, {j}) must be a [re, im] pair of numbers")
            mat[i, j] = complex(entry[0], entry[1])
    return DensityMatrix(mat, dims)


def exact_classical(mat, dims) -> bool:
    """Whether mat, read entry by entry as the rational complex number it
    stores (Fraction of each double, over Q(i)), has a product eigenbasis.

    Write mat = sum_ij |i><j| (x) B_ij over A's computational basis. For a
    Hermitian mat the B_ij are closed under the adjoint, so they share an
    eigenbasis, and mat is classical on B, iff they commute pairwise. The
    blocks <k| mat |l> over B's basis decide side A the same way, and both
    sides together give a product eigenbasis. There is no tolerance: this
    decides the matrix exactly as stored, so its domain is states whose
    float entries are built exactly. dims is the pair (dA, dB)."""
    dA, dB = dims
    r = np.asarray(mat, dtype=np.complex128).reshape(dA, dB, dA, dB)
    re, im = (np.vectorize(Fraction, otypes=[object])(part) for part in (r.real, r.imag))
    sides = (
        [(re[i, :, j, :], im[i, :, j, :]) for i in range(dA) for j in range(dA)],
        [(re[:, k, :, l], im[:, k, :, l]) for k in range(dB) for l in range(dB)],
    )
    return all(_exact_commute(x, y) for blocks in sides for x, y in itertools.combinations(blocks, 2))


def _exact_product(x, y):
    """(a + ib)(c + id) for Fraction matrices given as (real, imaginary) pairs."""
    (a, b), (c, d) = x, y
    return a @ c - b @ d, a @ d + b @ c


def _exact_commute(x, y) -> bool:
    return all((p == q).all() for p, q in zip(_exact_product(x, y), _exact_product(y, x)))
