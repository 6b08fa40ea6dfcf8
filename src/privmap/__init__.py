"""privmap: privacy-protected denominators in small-area disease mapping.

The package builds synthetic nested geographies, applies a configurable
top-down disclosure-avoidance mechanism to census-style tabulations,
derives age-standardized expected counts, fits spatial Poisson models by
MCMC, and measures the resulting bias in rate and inequity estimates over
replicated simulations.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    GeographyError,
    MissingInputError,
    ModelError,
    PrivmapError,
    ProtectionError,
    SimulationError,
    StandardizationError,
    TabulationError,
)
from .geo import Adjacency, Hierarchy, build_synthetic_geography
from .tabulation import (
    AgeSchema,
    GroupSchema,
    TabulationCube,
    aggregate,
    default_age_schema,
    default_group_schema,
    ingest,
)
from .das import (
    DasConfig,
    controlled_round,
    das_preset,
    inject_noise,
    project_children,
    run_topdown,
)
from .standardize import (
    ExpectedCounts,
    ReferenceRates,
    expected_counts,
    percent_error,
    reference_rates,
    underestimation_fraction,
)
from .carmodel import (
    FitSummary,
    McmcConfig,
    ModelSpec,
    PosteriorDraws,
    SmrEstimates,
    build_spec,
    fit,
    mrr_summary,
    predict_counts,
    sample_car_prior,
)
from .simulate import (
    DgpConfig,
    StudyReport,
    bias,
    generate_dataset,
    mape,
    run_study,
    upward_fraction,
)
