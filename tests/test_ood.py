import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from uqscore.errors import UqscoreError
from uqscore.measures import ScoringRule, SecondOrderSample
from uqscore.ood import AurocResult, ScoreSplit, _average_ranks, auroc, auroc_pairwise, run_ood

LOG = ScoringRule.LOG


def rankdata_auroc(split):
    """The AUROC from ``scipy.stats.rankdata`` average ranks (reference path)."""
    n_id, n_ood = split.id_scores.size, split.ood_scores.size
    ranks = rankdata(np.concatenate([split.ood_scores, split.id_scores]), method="average")
    u = float(ranks[:n_ood].sum()) - n_ood * (n_ood + 1) / 2.0
    d = float(n_id * n_ood)
    return u / d if 2.0 * u <= d else 1.0 - (d - u) / d


class TestScoreSplit:
    def test_empty_side(self):
        with pytest.raises(UqscoreError, match="^id_scores is empty$"):
            ScoreSplit([], [0.5])
        with pytest.raises(UqscoreError, match="^ood_scores is empty$"):
            ScoreSplit([0.5], [])

    def test_non_finite_rejected(self):
        with pytest.raises(UqscoreError, match="^id_scores contains non-finite values$"):
            ScoreSplit([np.nan], [0.5])
        with pytest.raises(UqscoreError, match="^ood_scores contains non-finite values$"):
            ScoreSplit([0.1], [np.inf])


class TestAverageRanks:
    def assert_matches_rankdata(self, x):
        x = np.asarray(x, dtype=np.float64)
        got = _average_ranks(x)
        assert got.dtype == np.float64
        assert np.array_equal(got, rankdata(x, method="average"))

    def test_fuzzed_arrays(self, rng):
        for _ in range(300):
            self.assert_matches_rankdata(rng.normal(size=int(rng.integers(1, 400))))

    def test_tie_heavy_integer_grids(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 400))
            self.assert_matches_rankdata(rng.integers(0, int(rng.integers(1, 12)), size=n))

    def test_edge_values(self):
        self.assert_matches_rankdata([0.25])
        self.assert_matches_rankdata(np.full(9, 3.5))
        self.assert_matches_rankdata([0.0, -0.0, 1.0, -0.0, 0.0])
        self.assert_matches_rankdata([1e308, -1e308, 0.0, 1e308, -1e308, 5e-324])


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc(ScoreSplit([0.1, 0.2], [0.9, 0.8])).auroc == 1.0

    def test_complete_tie(self):
        assert auroc(ScoreSplit([0.5], [0.5])).auroc == 0.5

    def test_three_of_four_pairs(self):
        assert auroc(ScoreSplit([0.5, 0.1], [0.9, 0.3])).auroc == 0.75

    def test_matches_pairwise_definition(self, rng):
        for _ in range(200):
            n_id = int(rng.integers(1, 200))
            n_ood = int(rng.integers(1, 200))
            id_scores = rng.random(n_id)
            ood_scores = rng.random(n_ood) + rng.normal(0.2, 0.4)
            if rng.random() < 0.5:  # force tie collisions
                id_scores = np.round(id_scores, 1)
                ood_scores = np.round(ood_scores, 1)
            split = ScoreSplit(id_scores, ood_scores)
            assert auroc(split).auroc == pytest.approx(auroc_pairwise(split), abs=1e-12)

    def test_complement_symmetry_exact(self, rng):
        # includes the awkward 1/3 + 2/3 case, which naive division misses
        cases = [(np.array([0.5, 1.5, 2.5]), np.array([1.0]))]
        for _ in range(200):
            n_id = int(rng.integers(1, 60))
            n_ood = int(rng.integers(1, 60))
            cases.append((np.round(rng.random(n_id), 1), np.round(rng.random(n_ood), 1)))
        for id_scores, ood_scores in cases:
            forward = auroc(ScoreSplit(id_scores, ood_scores)).auroc
            backward = auroc(ScoreSplit(ood_scores, id_scores)).auroc
            assert forward + backward == 1.0

    def test_monotone_transform_invariance(self, rng):
        for _ in range(50):
            id_scores = rng.random(int(rng.integers(1, 80)))
            ood_scores = rng.random(int(rng.integers(1, 80)))
            base = auroc(ScoreSplit(id_scores, ood_scores)).auroc
            for transform in (np.exp, lambda x: 3.0 * x - 7.0, lambda x: x ** 3):
                got = auroc(ScoreSplit(transform(id_scores), transform(ood_scores))).auroc
                assert got == base

    @given(
        st.lists(st.integers(0, 9), min_size=1, max_size=30),
        st.lists(st.integers(0, 9), min_size=1, max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_pairwise_and_complement_property(self, id_scores, ood_scores):
        # small integer grids force heavy tie structure
        split = ScoreSplit(np.array(id_scores, float), np.array(ood_scores, float))
        fast = auroc(split).auroc
        assert fast == pytest.approx(auroc_pairwise(split), abs=1e-12)
        assert fast == rankdata_auroc(split)
        swapped = auroc(ScoreSplit(np.array(ood_scores, float), np.array(id_scores, float))).auroc
        assert fast + swapped == 1.0


class TestRunOod:
    def test_separated_epistemic_uncertainty(self):
        # M=1 beliefs carry no epistemic uncertainty; disagreeing members do
        id_samples = [SecondOrderSample([[0.8, 0.2]]) for _ in range(5)]
        ood_samples = [
            SecondOrderSample([[0.9, 0.1], [0.2, 0.8]]),
            SecondOrderSample([[0.6, 0.4], [0.3, 0.7]]),
        ]
        got = run_ood(id_samples, ood_samples, LOG, "epistemic")
        assert got.auroc == 1.0
        assert (got.n_id, got.n_ood) == (5, 2)

    def test_identical_lists_are_chance(self):
        samples = [SecondOrderSample([[0.7, 0.3], [0.4, 0.6]]), SecondOrderSample([[0.5, 0.5]])]
        assert run_ood(samples, samples, LOG, "epistemic").auroc == 0.5

    def test_single_reversed_pair(self):
        id_sample = SecondOrderSample([[0.9, 0.1], [0.2, 0.8]])  # high EU
        ood_sample = SecondOrderSample([[0.7, 0.3]])  # zero EU
        assert run_ood([id_sample], [ood_sample], LOG, "epistemic").auroc == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(UqscoreError, match=r"^samples disagree on class count: \[2, 3\]$"):
            run_ood(
                [SecondOrderSample([[0.5, 0.5]])],
                [SecondOrderSample([[0.2, 0.3, 0.5]])],
                LOG,
                "epistemic",
            )

    def test_unknown_component(self):
        with pytest.raises(ValueError):
            run_ood([SecondOrderSample([[0.5, 0.5]])], [SecondOrderSample([[0.5, 0.5]])], LOG, "mutual")


@pytest.mark.parametrize("rule", list(ScoringRule))
def test_pool_scores_equal_per_row_decompose(rule):
    # ood_trend_run and acquire score predict_pool's array; each value must equal decompose(SecondOrderSample(row))
    from uqscore.active import LearnerConfig, TabularDataset, _two_blobs, fit, predict_pool
    from uqscore.measures import COMPONENTS, _component_scores, decompose

    rng = np.random.default_rng(5)
    learner = fit(LearnerConfig(n_trees=12, depth_cap=4), TabularDataset(*_two_blobs(rng, 40, 1.1), 2), seed=5)
    pool = predict_pool(learner, rng.normal(0.0, 3.0, size=(60, 2)))
    triples = [decompose(rule, SecondOrderSample(row)) for row in pool.members]
    for component in COMPONENTS:
        want = np.concatenate([getattr(t, component) for t in triples])
        assert _component_scores(rule, [pool], component).tobytes() == want.tobytes()
