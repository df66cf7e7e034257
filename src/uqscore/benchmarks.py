"""Desk-scale trend benchmarks shared by the test suite and demo scripts.

Both constructions are deliberately small and fully seeded.  The OoD
benchmark trains the bagged ensemble on two overlapping Gaussian blobs
and scores a far-away cluster placed over the contested midline, where
bootstrap resampling makes the extrapolated decision boundary unstable.
The active-learning benchmark wraps the epistemic-gap data with its
evaluation split and the learner settings the trend checks use.
"""

from __future__ import annotations

import numpy as np

from .active import (
    LearnerConfig,
    TabularDataset,
    fit,
    make_epistemic_gap,
    predict_pool,
    _two_blobs,
)
from .measures import ScoringRule, SecondOrderSample
from .ood import AurocResult, run_ood

__all__ = [
    "OOD_LEARNER",
    "GAP_LEARNER",
    "ood_trend_run",
    "gap_problem",
]

#: Learner used by the OoD separability trend check.  Many trees keep the
#: all-members-agree fraction of the far cluster small.
OOD_LEARNER = LearnerConfig(n_trees=200, depth_cap=6, min_leaf=2, alpha=1.0)

#: Learner used by the active-learning trend check.  min_leaf=2 stops a
#: single acquired gap point from flipping the whole far region.
GAP_LEARNER = LearnerConfig(n_trees=20, depth_cap=5, min_leaf=2, alpha=1.0)

_OOD_SIGMA_X = 1.1  # mild class overlap along x
_OOD_FAR_CENTER = (2.0, 8.0)  # 8 within-class sigmas above the data
_OOD_FAR_SIGMA = 0.3  # narrow, concentrated over the contested midline


def ood_trend_run(
    seed: int,
    n_train: int = 180,
    n_eval: int = 200,
    component: str = "epistemic",
) -> dict[ScoringRule, AurocResult]:
    """One seeded OoD run: AUROC of each rule's chosen component.

    Trains on two overlapping blobs, evaluates fresh in-distribution draws
    against a narrow far-away cluster over the midline, eight within-class
    standard deviations above the training data.
    """
    rng = np.random.default_rng(seed)
    train = TabularDataset(*_two_blobs(rng, n_train, _OOD_SIGMA_X), 2)
    id_features, _ = _two_blobs(rng, n_eval // 2, _OOD_SIGMA_X)
    ood_eval = np.column_stack(
        [
            rng.normal(_OOD_FAR_CENTER[0], _OOD_FAR_SIGMA, size=n_eval),
            rng.normal(_OOD_FAR_CENTER[1], _OOD_FAR_SIGMA, size=n_eval),
        ]
    )
    learner = fit(OOD_LEARNER, train, seed=seed)
    id_samples = [SecondOrderSample(row) for row in predict_pool(learner, id_features)]
    ood_samples = [SecondOrderSample(row) for row in predict_pool(learner, ood_eval)]
    return {
        rule: run_ood(id_samples, ood_samples, rule, component)
        for rule in ScoringRule
    }


def gap_problem(
    n_labeled_region: int,
    n_gap_region: int,
    seed: int = 0,
) -> tuple[TabularDataset, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Epistemic-gap data plus its (initial, pool, test) split."""
    initial, pool, data = make_epistemic_gap(n_labeled_region, n_gap_region, seed=seed)
    test = np.setdiff1d(np.arange(data.n), np.concatenate([initial, pool]))
    return data, (initial, pool, test)
