"""Loss-based uncertainty quantification for finite second-order beliefs.

The :mod:`uqscore.measures` module decomposes the expected loss of a
scoring rule into entropy and divergence parts, turning each rule (log,
Brier, zero-one, spherical) into a total/aleatoric/epistemic uncertainty
measure over a finite set of member distributions.  The remaining modules
evaluate those measures on downstream tasks: selective prediction
(:mod:`uqscore.selective`), out-of-distribution detection
(:mod:`uqscore.ood`), and pool-based active learning
(:mod:`uqscore.active`), with brute-force oracles in
:mod:`uqscore.verify` and a CLI in :mod:`uqscore.cli`.
"""

from .measures import (
    COMPONENTS,
    SIMPLEX_TOLERANCE,
    CategoricalDistribution,
    ScoringRule,
    SecondOrderSample,
    UncertaintyTriple,
    decompose,
    divergence,
    entropy,
    expected_loss,
    generic_triple,
    loss,
    validate_simplex,
)
from .selective import (
    AulcResult,
    Ordering,
    aulc,
    aulc_weighted,
    harmonic_weights,
    optimal_aulc_bruteforce,
    order_by_uncertainty,
    run_selective_prediction,
)
from .ood import AurocResult, ScoreSplit, auroc, auroc_pairwise, run_ood
from .active import (
    AcquisitionStrategy,
    ActiveLearningTrace,
    EnsembleLearner,
    LearnerConfig,
    TabularDataset,
    acquire,
    ensemble_zero_one_loss,
    fit,
    make_blobs,
    make_epistemic_gap,
    make_ood_points,
    predict_pool,
    predict_second_order,
    run_active_learning,
)
from .records import PredictionRecord, parse_predictions, write_predictions

__version__ = "0.1.0"

__all__ = [
    "COMPONENTS",
    "SIMPLEX_TOLERANCE",
    "CategoricalDistribution",
    "ScoringRule",
    "SecondOrderSample",
    "UncertaintyTriple",
    "decompose",
    "divergence",
    "entropy",
    "expected_loss",
    "generic_triple",
    "loss",
    "validate_simplex",
    "AulcResult",
    "Ordering",
    "aulc",
    "aulc_weighted",
    "harmonic_weights",
    "optimal_aulc_bruteforce",
    "order_by_uncertainty",
    "run_selective_prediction",
    "AurocResult",
    "ScoreSplit",
    "auroc",
    "auroc_pairwise",
    "run_ood",
    "AcquisitionStrategy",
    "ActiveLearningTrace",
    "EnsembleLearner",
    "LearnerConfig",
    "TabularDataset",
    "acquire",
    "ensemble_zero_one_loss",
    "fit",
    "make_blobs",
    "make_epistemic_gap",
    "make_ood_points",
    "predict_pool",
    "predict_second_order",
    "run_active_learning",
    "PredictionRecord",
    "parse_predictions",
    "write_predictions",
    "__version__",
]
