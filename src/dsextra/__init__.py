"""Exact-arithmetic toolkit for overlap estimates on coprime approximation
arcs and divergence experiments behind second-moment lower bounds."""

from .arith import (
    Approx,
    exp_rational,
    factorize,
    log_weight_integral,
    totient,
)
from .circles import (
    ArcEvent,
    CircleIntervalSet,
    arc_event,
    coprime_arcs,
    coprime_intersection_sums,
    coprime_measure,
    intersect,
    intersection_measure,
    midpoint_grid_measure,
)
from .errors import (
    CapExceededError,
    ConfigError,
    DomainError,
    DsextraError,
    PrecisionGuardError,
    UndefinedRatioError,
)
from .harness import (
    ExperimentConfig,
    borel_cantelli_ratio,
    divergence_table,
    load_config,
    parse_config,
    run_experiment,
    sample_pairs,
)
from .overlap import (
    OverlapRecord,
    PairDecomposition,
    averaged_sum,
    averaging_reference,
    decompose_pair,
    disjoint_predicted,
    overlap_cutoff,
    overlap_integral_bound,
    overlap_records,
    prime_product_bound,
)
from .psi import PsiFunction, make_psi, normalize_psi
from .schedule import (
    BlockReport,
    block_bounds,
    block_of,
    scale_count,
    select_scale,
    thinned_psi,
)

__version__ = "0.1.0"
