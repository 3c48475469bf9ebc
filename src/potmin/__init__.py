"""Convex potential minimization for linear classifiers on finite
labeled distributions, with exact (analytic) label-noise corruption."""

from .analysis import (RayProbe, RobustnessReport, check_rcn_robustness,
                       expected_loss, misclassification_error, recession_probe,
                       slope_identity_fuzz, slope_identity_residual,
                       DEFAULT_RAY_GRID)
from .distributions import (DiscreteDistribution, MarginCertificate, certify_margin,
                            corrupt_rcn, l1_margin, make_counterexample,
                            mean_label_feature, random_distribution)
from .dynamics import Trajectory, cd_unhinged, gd_unhinged, label_sum
from .loss_zoo import (LOSS_NAMES, CheckResult, LossOverflowError, PotentialFunction,
                       PredicateReport, check_def1, make_loss)
from .minimizers import FitResult, PGDConfig, WeightVector, pgd_minimizer, unhinged_minimizer

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_RAY_GRID",
    "CheckResult",
    "DiscreteDistribution",
    "FitResult",
    "LOSS_NAMES",
    "LossOverflowError",
    "MarginCertificate",
    "PGDConfig",
    "PotentialFunction",
    "PredicateReport",
    "RayProbe",
    "RobustnessReport",
    "Trajectory",
    "WeightVector",
    "cd_unhinged",
    "certify_margin",
    "check_def1",
    "check_rcn_robustness",
    "corrupt_rcn",
    "expected_loss",
    "gd_unhinged",
    "l1_margin",
    "label_sum",
    "make_counterexample",
    "make_loss",
    "mean_label_feature",
    "misclassification_error",
    "pgd_minimizer",
    "random_distribution",
    "recession_probe",
    "slope_identity_fuzz",
    "slope_identity_residual",
    "unhinged_minimizer",
]
