"""Graphical lasso penalty tuning with exact implicit hypergradients.

The package solves the weighted graphical lasso, differentiates its
solution map in the penalty through the solver's fixed-point equation, and
descends a hold-out criterion over a scalar level or a full weight matrix.
A log-grid search baseline and a synthetic-data CLI round it out.
"""

from .bilevel import (
    BilevelConfig,
    GridPoint,
    Trajectory,
    TrajectoryRecord,
    default_grid,
    grid_search,
    lambda_init,
    starting_level,
    tune_matrix,
    tune_scalar,
)
from .datagen import (
    Dataset,
    GroundTruth,
    empirical_covariance,
    make_sparse_spd,
    sample_gaussian,
    split_samples,
)
from .exceptions import (
    DegenerateInput,
    DegenerateSplit,
    DegenerateSupport,
    GlassoTuneError,
    NotConverged,
    NotPositiveDefinite,
    SingularSystem,
)
from .glasso import (
    PrecisionEstimate,
    Regularization,
    SolverConfig,
    check_optimality,
    soft_threshold,
    solve,
)
from .implicit import (
    CriterionValue,
    criterion_holdout,
    hypergradient_scalar,
    hypergradient_weighted,
    jacobian_scalar,
    relative_error,
    support_from_estimate,
)
from .linalg import SupportSet

__version__ = "0.1.0"

__all__ = [
    "BilevelConfig",
    "CriterionValue",
    "Dataset",
    "DegenerateInput",
    "DegenerateSplit",
    "DegenerateSupport",
    "GlassoTuneError",
    "GridPoint",
    "GroundTruth",
    "NotConverged",
    "NotPositiveDefinite",
    "PrecisionEstimate",
    "Regularization",
    "SingularSystem",
    "SolverConfig",
    "SupportSet",
    "Trajectory",
    "TrajectoryRecord",
    "check_optimality",
    "criterion_holdout",
    "default_grid",
    "empirical_covariance",
    "grid_search",
    "hypergradient_scalar",
    "hypergradient_weighted",
    "jacobian_scalar",
    "lambda_init",
    "make_sparse_spd",
    "relative_error",
    "sample_gaussian",
    "soft_threshold",
    "solve",
    "split_samples",
    "starting_level",
    "support_from_estimate",
    "tune_matrix",
    "tune_scalar",
]
