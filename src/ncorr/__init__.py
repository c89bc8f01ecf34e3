"""Nonclassical-correlation measures for bipartite density matrices.

The truncation measure scores a state by how far the reduced spectra of its
eigenspace truncations sit from integer multiples of the truncation level;
states diagonal in a product basis score exactly zero. A partition-based
companion measure and a set of polynomial-time product-eigenbasis detectors
round out the toolkit.
"""

__version__ = "0.1.0"

from .config import DEFAULT_TOLERANCES, Tolerances
from .detect import (
    CLASSICAL,
    NONCLASSICAL,
    UNKNOWN,
    DetectionVerdict,
    TestOutcome,
    classify,
    detect_commutator,
    detect_local_both_nondegenerate,
    detect_local_one_nondegenerate,
    detect_nondegenerate_global,
    detect_npt,
)
from .errors import CapabilityError, DomainError, MalformedInputError
from .linalg import (
    BipartiteDims,
    DensityMatrix,
    EigenSystem,
    commutator_fro_norm,
    partial_trace,
    partial_transpose,
    projector,
    tensor_product,
)
from .measures import (
    ComponentContribution,
    MeasureReport,
    SchmidtDecomposition,
    entropy_of_entanglement,
    mimic_discrepancy,
    nearest_integer_multiple,
    partition_discrepancy,
    partition_measure,
    ppt_min_eigenvalue,
    schmidt_decomposition,
    surprisal_term,
    truncation_measure,
    truncation_measure_side,
    von_neumann_entropy,
)
from .spectral import (
    EigenCluster,
    SpectralDecomposition,
    TruncatedComponent,
    cluster_spectrum,
    decompose,
    truncated_component,
)
from .states import (
    CATALOG_NAMES,
    ClassicalSample,
    StateSpec,
    apply_local_unitaries,
    bell,
    bell_basis,
    build,
    haar_unitary,
    kappa,
    kappa_eigenvalues,
    ket,
    phi_p,
    plus_ket,
    random_classical,
    random_density,
    random_local_unitary,
    sigma,
    sigma_dprime,
    sigma_prime,
    tau,
    varsigma,
    xi,
    xi_prime,
    zeta,
    zeta_prime,
)
