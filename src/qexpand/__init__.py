"""Numerical toolkit for quantum expanders and the geometry of unitary tuples."""

from .errors import (
    BoundViolation,
    ConfigError,
    DenseCapExceeded,
    DimensionMismatch,
    InfeasibleOverlap,
    NormingOrbitError,
    QexError,
    TupleFormatError,
    UnitarityError,
)
from .expanders import (
    ExpanderCertificate,
    GroupPresentation,
    cayley_regular_tuple,
    certify,
    classical_gap,
    cyclic_group,
    haar_tuple,
    mixing_curve,
    pauli_tuple,
)
from .geometry import (
    OrbitDistanceReport,
    SeparationReport,
    dcb_lower_bound,
    delta_overlap,
    direct_sum,
    find_norming_tuple,
    lower_bound_from_separation,
    mix_tuple,
    near_norming_radius,
    orbit_distance,
    separation,
    separation_bound,
    separation_from_distance,
    strong_separation_estimate,
    tuple_distance,
    zero_pad,
)
from .linalg import (
    MatrixTuple,
    RngSpec,
    ginibre_singular_mean,
    hs_norm,
    load_tuple,
    normalized_trace,
    polar_unitary,
    sample_ginibre,
    sample_haar_unitary,
    save_tuple,
    svd,
    trace_norm,
)
from .packing import (
    CoverEstimate,
    PackingFamily,
    greedy_cover,
    greedy_pack,
    net_size_bound,
    packing_upper_bound,
    subgaussian_tail_check,
)
from .randmat import (
    ChiReport,
    MomentReport,
    TwirlReport,
    chi_n_estimate,
    gaussian_decoupled_norm,
    matrix_coefficient_sum,
    twirl_identity_check,
    unitary_sum_norm,
)
from .superop import GapReport, SuperOperator, apply, materialize, operator_norm, spectral_gap

__version__ = "0.1.0"
