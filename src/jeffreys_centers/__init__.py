"""Jeffreys centroids and fast proxy centers.

Computes the symmetrized Kullback-Leibler (Jeffreys) centroid of weighted
categorical or multivariate normal sets, together with two fast structural
replacements: the Jeffreys-Fisher-Rao center (Fisher-Rao midpoint of the
sided KL centroids) and the inductive Gauss-Bregman center (limit of an
arithmetic / quasi-arithmetic double sequence).
"""

__version__ = "0.1.0"

from .errors import DomainError, NumericalError
from .special_functions import ToleranceConfig, lambert_w0
from .legendre import (
    CenterDiagnostics,
    GeneratorSpec,
    WeightedParamSet,
    bregman_div,
    check_weights,
    jeffreys_loss,
    quasi_arithmetic_center,
    right_bregman_centroid,
    symmetrized_bregman,
)
from .generators import (
    burg_generator,
    make_separable_generator,
    shannon_generator,
    squared_generator,
)
from .gauss_bregman import gb_center, gb_step
from .categorical import (
    HistogramSet,
    JeffreysCatResult,
    SimplexPoint,
    approximation_factor,
    arithmetic_mean,
    c_of_lambda,
    gb_center_cat,
    jeffreys_cat,
    jeffreys_centroid_cat,
    jeffreys_loss_cat,
    jfr_center_cat,
    kl_cat,
    normalized_geometric_mean,
    tv_cat,
    unnormalized_center,
)
from .spd import (
    SPDMatrix,
    geometric_mean,
    logdet_div,
    sld_centroid,
    symmetrized_logdet,
    trace_metric_distance,
)
from .gaussian import (
    GaussianParam,
    fisher_rao_midpoint_mvn,
    gb_center_mvn,
    jeffreys_centroid_centered,
    jeffreys_loss_mvn,
    jeffreys_mvn,
    jfr_center_mvn,
    kl_mvn,
    mvn_from_natural,
    mvn_generator,
    mvn_to_natural,
    sided_kl_centroids_mvn,
)
from .uniparam import ScalarGenerator, jfr_center_1d

__all__ = [
    "DomainError",
    "NumericalError",
    "ToleranceConfig",
    "lambert_w0",
    "CenterDiagnostics",
    "GeneratorSpec",
    "WeightedParamSet",
    "bregman_div",
    "check_weights",
    "jeffreys_loss",
    "quasi_arithmetic_center",
    "right_bregman_centroid",
    "symmetrized_bregman",
    "burg_generator",
    "make_separable_generator",
    "shannon_generator",
    "squared_generator",
    "gb_center",
    "gb_step",
    "HistogramSet",
    "JeffreysCatResult",
    "SimplexPoint",
    "approximation_factor",
    "arithmetic_mean",
    "c_of_lambda",
    "gb_center_cat",
    "jeffreys_cat",
    "jeffreys_centroid_cat",
    "jeffreys_loss_cat",
    "jfr_center_cat",
    "kl_cat",
    "normalized_geometric_mean",
    "tv_cat",
    "unnormalized_center",
    "SPDMatrix",
    "geometric_mean",
    "logdet_div",
    "sld_centroid",
    "symmetrized_logdet",
    "trace_metric_distance",
    "GaussianParam",
    "fisher_rao_midpoint_mvn",
    "gb_center_mvn",
    "jeffreys_centroid_centered",
    "jeffreys_loss_mvn",
    "jeffreys_mvn",
    "jfr_center_mvn",
    "kl_mvn",
    "mvn_from_natural",
    "mvn_generator",
    "mvn_to_natural",
    "sided_kl_centroids_mvn",
    "ScalarGenerator",
    "jfr_center_1d",
]
