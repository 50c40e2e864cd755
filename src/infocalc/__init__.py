"""Stochastic network calculus for information-driven networks."""

from .bounding import (
    BoundingFunction,
    ExpBound,
    GridBound,
    GridLowerBound,
    LowerBoundingFunction,
    ZeroBound,
    ZeroLowerBound,
    bf_convolve,
    bf_infsum,
    bf_invert,
)
from .calculus import (
    GuaranteeReport,
    IsaSpec,
    IssSpec,
    LisaSpec,
    backlog_bound,
    backlog_within_delay_bound,
    concatenate,
    delay_bound,
    delay_bound_at,
    impair,
    output_bound,
    parallel,
    superpose,
)
from .curves import Curve, convolve, deconvolve, horizontal_deviation
from .errors import InfoCalcError
from .scenario import (
    Scenario,
    case_study_path,
    case_study_scenario,
    effective_path_service,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)
from .sources import (
    SourceModel,
    SpatialModel,
    aggregate_information,
    aggregate_rate,
    calibrate_sigma2,
    entropy_of_gaussian_block,
    gaussian_arrival_curve,
    group_information,
)
from .algorithms import (
    AchievableRate,
    Infeasible,
    RatioResult,
    Schedule,
    bflr,
    bflr_table,
    calibrate_horizon,
    delivery_ratio,
    delivery_ratio_table,
    dominates,
    ratecal,
    schedule_subset,
)
from .simulate import TailReport, TraceConfig, simulate

__version__ = "0.1.0"
