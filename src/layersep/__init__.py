"""Separability of random point clouds in a spherical layer.

Uniform sampling on B_d minus an inner ball, Fisher and linear (1-convexity)
separability checks with certificates, the probability and admissible-count
lower bounds with their asymptotic laws, and seeded Monte Carlo experiments
that pair empirical frequencies with those bounds.
"""

from .asymptotics import (
    CRITICAL_RADII,
    AsymptoticValue,
    RadiusRegime,
    RatioLaw,
    classify_radius,
    eq1_asymptotic,
    fisher_gap_asymptotic,
    fisher_gap_exact,
    fisher_ratio_f_over_g,
    gap_ratio_linear_vs_fisher,
    layer_count_ratio,
)
from .bounds import (
    BOUND_IDS,
    COUNT_BOUND_IDS,
    PROBABILITY_BOUND_IDS,
    BoundQuery,
    BoundResult,
    evaluate_bound,
    n_admissible,
    p1_fisher_lb,
    p1_linear_lb,
    p_fisher_lb,
    p_linear_lb,
)
from .errors import DomainError, EnumerationLimitError, LPStallError
from .exact import exact_point_vs_set
from .experiments import (
    ExperimentPlan,
    ExperimentRecord,
    frequency_interval,
    run_experiment,
)
from .geometry import (
    LayerSpec,
    PointCloud,
    log_unit_ball_volume,
    radius_inverse_cdf,
    sample_layer,
    unit_ball_volume,
)
from .separability import (
    SeparabilityCertificate,
    SetReport,
    fisher_point_vs_set,
    fisher_separable_set,
    linearly_separable_set,
    lp_point_vs_set,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DomainError",
    "LPStallError",
    "EnumerationLimitError",
    "LayerSpec",
    "PointCloud",
    "sample_layer",
    "radius_inverse_cdf",
    "unit_ball_volume",
    "log_unit_ball_volume",
    "SeparabilityCertificate",
    "SetReport",
    "fisher_point_vs_set",
    "fisher_separable_set",
    "lp_point_vs_set",
    "linearly_separable_set",
    "verify_certificate",
    "exact_point_vs_set",
    "BOUND_IDS",
    "PROBABILITY_BOUND_IDS",
    "COUNT_BOUND_IDS",
    "BoundQuery",
    "BoundResult",
    "evaluate_bound",
    "n_admissible",
    "p1_linear_lb",
    "p_linear_lb",
    "p1_fisher_lb",
    "p_fisher_lb",
    "CRITICAL_RADII",
    "RadiusRegime",
    "AsymptoticValue",
    "RatioLaw",
    "classify_radius",
    "eq1_asymptotic",
    "fisher_ratio_f_over_g",
    "layer_count_ratio",
    "fisher_gap_exact",
    "fisher_gap_asymptotic",
    "gap_ratio_linear_vs_fisher",
    "ExperimentPlan",
    "ExperimentRecord",
    "frequency_interval",
    "run_experiment",
]
