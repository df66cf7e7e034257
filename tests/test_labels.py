"""The one label rule, the same at every caller that takes labels."""

import numpy as np
import pytest

from uqscore.active import LearnerConfig, TabularDataset, ensemble_zero_one_loss, fit, make_blobs
from uqscore.errors import LabelOutOfRange
from uqscore.measures import ScoringRule, SecondOrderSample, loss
from uqscore.records import PredictionRecord
from uqscore.selective import run_selective_prediction

K = 2
SAMPLE = SecondOrderSample([[0.6, 0.4], [0.7, 0.3]])
DATA = make_blobs(K, 5, d=1, spread=0.5, centers_seed=1, noise_seed=2)
LEARNER = fit(LearnerConfig(n_trees=2, depth_cap=1), DATA, seed=0)

#: Each caller takes one label of the kind under test, after a good label where it takes several.
CALLERS = {
    "loss": lambda y: loss(ScoringRule.LOG, SAMPLE.mean, y),
    "PredictionRecord": lambda y: PredictionRecord("a", SAMPLE, y),
    "TabularDataset": lambda y: TabularDataset([[0.0], [1.0]], [1, y], K),
    "ensemble_zero_one_loss": lambda y: ensemble_zero_one_loss(LEARNER, DATA.features[:2], [1, y]),
    "run_selective_prediction": lambda y: run_selective_prediction(
        [(SAMPLE, 1), (SAMPLE, y)], ScoringRule.LOG, ScoringRule.LOG
    ),
}

#: (kind, label, the error text, or None where the label passes)
KINDS = [
    ("int", 1, None),
    ("np.int64", np.int64(2), None),
    ("np.uint8", np.uint8(1), None),
    ("True", True, "label True is not an integer"),
    ("1.0", 1.0, "label 1.0 is not an integer"),
    ("1.7", 1.7, "label 1.7 is not an integer"),
    ('"1"', "1", "label '1' is not an integer"),
    ("0", 0, f"label 0 not in 1..{K}"),
    ("K + 1", K + 1, f"label {K + 1} not in 1..{K}"),
    ("10**30", 10**30, f"label {10**30} not in 1..{K}"),
]


@pytest.mark.parametrize("caller", list(CALLERS))
@pytest.mark.parametrize("kind, label, text", KINDS, ids=[kind for kind, _, _ in KINDS])
def test_one_outcome_per_label_kind_at_every_caller(caller, kind, label, text):
    if text is None:
        CALLERS[caller](label)
    else:
        with pytest.raises(LabelOutOfRange) as exc:
            CALLERS[caller](label)
        assert str(exc.value) == text


def test_accepted_labels_are_kept_as_integers():
    assert type(PredictionRecord("a", SAMPLE, np.int64(2)).label) is int
    labels = TabularDataset([[0.0], [1.0]], np.array([1, 2], dtype=np.uint8), K).labels
    assert labels.dtype == np.intp and labels.tolist() == [1, 2]


def test_the_first_bad_label_is_named():
    with pytest.raises(LabelOutOfRange, match=r"^label 0 not in 1\.\.2$"):
        TabularDataset(np.zeros((4, 1)), [1, 0, 1.5, 3], K)
    with pytest.raises(LabelOutOfRange, match=r"^label 1\.5 is not an integer$"):
        ensemble_zero_one_loss(LEARNER, DATA.features[:4], [2, 1.5, 0, 1])
