"""Desk-scale trend benchmarks shared by the test suite and demo scripts.

Both constructions are deliberately small and fully seeded.  The OoD
benchmark trains the bagged ensemble on two overlapping Gaussian blobs
and scores a far-away cluster placed over the contested midline, where
bootstrap resampling makes the extrapolated decision boundary unstable.
The active-learning trend checks run on :func:`uqscore.active.make_epistemic_gap`
with the learner settings kept here.
"""

from __future__ import annotations

import numpy as np

from .active import LearnerConfig, TabularDataset, _two_blobs, fit, predict_pool
from .measures import ScoringRule
from .ood import AurocResult, run_ood

__all__ = [
    "OOD_LEARNER",
    "GAP_LEARNER",
    "ood_trend_run",
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


def ood_trend_run(seed: int) -> dict[ScoringRule, AurocResult]:
    """One seeded OoD run: AUROC of each rule's epistemic component.

    Trains on two overlapping blobs of 180 points per class, evaluates 200
    fresh in-distribution draws against 200 points of a narrow far-away
    cluster over the midline, eight within-class standard deviations above
    the training data.
    """
    rng = np.random.default_rng(seed)
    train = TabularDataset(*_two_blobs(rng, 180, _OOD_SIGMA_X), 2)
    id_features, _ = _two_blobs(rng, 100, _OOD_SIGMA_X)
    ood_eval = np.column_stack(
        [
            rng.normal(_OOD_FAR_CENTER[0], _OOD_FAR_SIGMA, size=200),
            rng.normal(_OOD_FAR_CENTER[1], _OOD_FAR_SIGMA, size=200),
        ]
    )
    learner = fit(OOD_LEARNER, train, seed=seed)
    id_pool, ood_pool = predict_pool(learner, id_features), predict_pool(learner, ood_eval)
    return {rule: run_ood([id_pool], [ood_pool], rule) for rule in ScoringRule}
