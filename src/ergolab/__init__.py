"""ergolab: empirical ergodic theory on concrete measure-preserving systems.

The package turns the qualitative trichotomy "equicontinuous in the mean /
bounded covering complexity / almost periodic in L2" into finite-sample
estimators: name words and Hamming balls, Birkhoff-averaged pseudo-metrics,
greedy covering numbers with bootstrap intervals, mean-equicontinuity
partitions, mean-expansivity rates, and Koopman orbit geometry.
"""

from ._version import __version__
from .cover import (
    ComplexityCurve,
    CoverResult,
    CurvePoint,
    FbarKind,
    FhatKind,
    HammingKind,
    ball_member,
    classify_boundedness,
    complexity_curve,
    curve_csv_rows,
    estimate_cover_number,
    exact_cover_number_small,
    pairwise_distances,
)
from .equicont import (
    EquiPartition,
    EquipartitionFailure,
    ExpansivityEstimate,
    find_equipartition,
    hamming_equipartition,
    mean_expansivity_estimate,
    verify_equipartition,
)
from .errors import (
    BudgetExhaustedError,
    ConfigError,
    ErgolabError,
    IncompatibleObservableError,
    IncompatiblePartitionError,
    InstanceTooLargeError,
    InvalidParameterError,
    LengthMismatchError,
    PlotDataError,
    UnsupportedRefinementError,
)
from .metrics import (
    LimitEstimate,
    default_tolerance,
    fbar_n,
    fbar_prefix_means,
    fhat_n,
    geometric_horizons,
    hamming_avg,
    limit_estimate,
)
from .observables import (
    CellIndicator,
    Character,
    Constant,
    CoordinateRead,
    Observable,
    TableObservable,
    eval_many,
    observable_from_json,
)
from .partitions import (
    NameWord,
    Partition,
    circle_intervals,
    classify,
    cylinder,
    halves,
    name_rows,
    name_symbols,
    name_word,
    partition_from_json,
    refine,
    trivial,
)
from .plotting import curve_svg, emit_plot, geometry_svg
from .report import (
    ExperimentConfig,
    ReportBundle,
    bundle_from_json,
    config_from_json,
    run_experiment,
    write_bundle,
)
from .rng import RandomPlan
from .spectral import (
    OrbitGeometry,
    classify_almost_periodic,
    eigen_residual,
    koopman_value,
    l2_distance,
    orbit_covering_number,
)
from .stats import frequency_check
from .systems import (
    GOLDEN,
    SystemSpec,
    bernoulli_shift,
    doubling,
    identity,
    is_rational_angle,
    make_system,
    odometer,
    rotation,
    spec_from_json,
    sturmian,
)
