"""Posterior distribution of mutual information for discrete variables.

A Dirichlet posterior over the joint chances of two categorical variables
induces a posterior over their mutual information.  This package computes
that posterior's exact mean and second-order variance, fits normal, gamma
and beta approximations to it, validates everything against a Monte Carlo
sampler, and applies the result to robust feature selection with
credible-interval filters driving an incremental naive Bayes harness.
"""

from .core import empirical_mi, mi_upper_bound
from .errors import (
    ConfigurationError,
    InfeasibleFitError,
    InputError,
    InsufficientDataError,
    NumericalError,
    UndefinedFillError,
    ZeroCellError,
)
from .filters import FILTERS, FilterConfig, FilterDecision, decide
from .harness import (
    Dataset,
    RunReport,
    discretize_equal_frequency,
    load_dataset,
    paired_t_test,
    prepare,
    run_incremental,
    synthetic_dataset,
    write_report,
)
from .mc import McSummary, ks_distance, sample_mi, tail_slope
from .missing import MissingMoments
from .moments import MiMoments, mi_mean, mi_moments
from .dist import DistApprox, TailExponents, fit, tail_exponents
from .tables import (
    ContingencyTable,
    PosteriorCounts,
    PriorSpec,
    apply_prior,
    table_from_json,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "ContingencyTable",
    "Dataset",
    "DistApprox",
    "FILTERS",
    "FilterConfig",
    "FilterDecision",
    "InfeasibleFitError",
    "InputError",
    "InsufficientDataError",
    "McSummary",
    "MiMoments",
    "MissingMoments",
    "NumericalError",
    "PosteriorCounts",
    "PriorSpec",
    "RunReport",
    "TailExponents",
    "UndefinedFillError",
    "ZeroCellError",
    "apply_prior",
    "decide",
    "discretize_equal_frequency",
    "empirical_mi",
    "fit",
    "ks_distance",
    "load_dataset",
    "mi_mean",
    "mi_moments",
    "mi_upper_bound",
    "paired_t_test",
    "prepare",
    "run_incremental",
    "sample_mi",
    "synthetic_dataset",
    "table_from_json",
    "tail_exponents",
    "tail_slope",
    "write_report",
]
