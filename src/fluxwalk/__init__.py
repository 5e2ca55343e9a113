"""Flux operators, integer transport indices, and shift decompositions for
strictly local unitary dynamics on integer lattices."""

from .config import DEFAULT, STRICT, Tolerances
from .errors import (
    CertificationError,
    ConsistencyError,
    DimensionMismatchError,
    EigenvalueAmbiguityError,
    FluxwalkError,
    NonSummableError,
    ValidationError,
)
from .fields import AdaptedProjection, HalfSpace, Plane, Ray, SiteMap
from .flux import (
    Certificate,
    FluxField,
    IndexReport,
    analyze,
    dense_window_index,
    index_by_kernels,
    index_by_odd_trace,
    index_by_supertrace,
    index_stability_probe,
    kitaev_sum,
)
from .lattice import (
    LatticeState,
    direction_index,
    direction_vector,
    haar_unitary,
    index_of_vector,
)
from .operators import CoinedWalk, LocalUnitary, matrix_on_window
from .shift import KernelData, PerturbedUnitary, build_perturbed, extract_kernels, verify_shift_structure
from .walks import (
    BoundarySpec,
    LeadSpec,
    NetworkSpec,
    build_walk,
    build_walk_flux,
    network_projection,
    synthesize_lead_coin,
    validate_network,
    verify_confinement,
    verify_wandering,
    walk_index,
)

__version__ = "0.1.0"
