"""Certified bounds on the erasure robustness of highly symmetric frames."""

from .bounds import (
    BoundsTable,
    certify,
    condition_number_bound,
    min_spanning_K,
    sorted_squared_correlations,
    sweep_all_K,
)
from .epsnet import (
    NetConfig,
    StepPoint,
    delta_for,
    min_levels,
    net_cardinality,
    prune_check,
    pruned_cardinality,
    quantize_step,
    verify_covering,
)
from .frames import (
    FrameMatrix,
    GeneratorSpec,
    canonicalize,
    orbit_signed_permutations,
    read_frame,
    require_certifiable,
    verify_group_invariance,
    verify_untf,
    write_frame,
)
from .oracle import (
    OracleResult,
    exact_bounds,
    exact_bounds_all_K,
)

__version__ = "0.1.0"
