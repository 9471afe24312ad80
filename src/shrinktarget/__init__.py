"""Shrinking-target experiments for matrix transformations of tori.

Orbit engines (digit arrays for integer and golden diagonal bases, dyadic
interval arithmetic otherwise), Parry/Yrrap invariant measures, quantitative
hit-counting experiments, closed-form Hausdorff-dimension calculators,
and constructive Markov subsystems, with a reproducible experiment CLI.
"""

__version__ = "0.1.0"

from .errors import (
    AmbiguityBudgetExceeded,
    BudgetTooLarge,
    ConfigInvalid,
    DegenerateF,
    InfiniteCoordinate,
    OutOfTable,
    PieceCapExceeded,
    PrecisionExhausted,
    RateNotVanishing,
    SingularMatrix,
    SlopeTooSmall,
    StartLawUnsupported,
    TolUnreachable,
    UnboundedU,
)
from .orbits import (
    DiagonalTorusSystem,
    IntegerMatrixSystem,
    UnitRealInterval,
    beta_step,
    eigenvalue_moduli,
    orbit_enclosures,
    required_precision,
    snapped_orbit,
)
from .cylinders import (
    BetaAutomaton,
    count_cylinders,
    full_cylinder_stats,
    preimage_intervals,
    preimage_sweep,
)
from .measures import (
    GOLDEN_RATIO,
    ParryYrrapMeasure,
    ProductMeasure,
    SupportSet,
    bound_constant,
)
from .targets import (
    AccumulationSet,
    Containment,
    RateFunction,
    Shape,
    TargetSpec,
    accumulation_set,
    ball,
    contains,
    hyperboloid,
    hyperboloid_volume,
    lebesgue_volume,
    phi_values,
    rectangle,
)
from .counting import (
    CheckpointRow,
    CorrelationSeries,
    CountingResult,
    CountingSummary,
    VarianceReport,
    correlation_estimate,
    correlation_series,
    count_hits,
    fit_exponential,
    invariant_measure,
    monte_carlo_counting,
    paley_zygmund_bound,
    variance_check,
    window_hits,
)
from .dimension import (
    DimensionReport,
    MtpInput,
    ReductionFactor,
    ReductionOutcome,
    conjectured_dim_hat,
    conjectured_theta_hat,
    cover_cost_sequence,
    degenerate_reduction,
    dim_ball,
    dim_mult,
    dim_onedim,
    dim_rect,
    markov_bounds,
    mtp_dimension,
    theta_rect,
    unbounded_bounds,
)
from .markov import (
    MarkovSubsystem,
    PiecewiseLinearMap,
    beta_map,
    build_markov,
    entropy_and_dim,
    eventually_onto_search,
    is_primitive,
    normalize_partition,
    perron_bounds,
    power_map,
    verify_markov,
    word_count,
)
from .cli import ExperimentConfig, RunManifest, run, validate
