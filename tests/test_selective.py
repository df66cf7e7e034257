import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqscore.errors import UqscoreError
from uqscore.measures import (
    ScoringRule,
    SecondOrderSample,
    expected_loss,
)
from uqscore.selective import (
    Ordering,
    aulc,
    aulc_weighted,
    harmonic_weights,
    optimal_aulc_bruteforce,
    order_by_uncertainty,
    run_selective_prediction,
)

from conftest import RULES

LOG = ScoringRule.LOG
ZERO_ONE = ScoringRule.ZERO_ONE


def single(probs):
    return SecondOrderSample([probs])


class TestOrdering:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Ordering(np.array([0, 0, 1]))

    def test_reversed(self):
        o = Ordering(np.array([2, 0, 1]), criterion="x")
        assert o.reversed().perm.tolist() == [1, 0, 2]


class TestOrderByUncertainty:
    def test_two_samples_zero_one_total(self):
        # zero-one total uncertainties 0.1 and 0.4
        samples = [single([0.9, 0.1]), single([0.6, 0.4])]
        assert order_by_uncertainty(samples, ZERO_ONE, "total").perm.tolist() == [0, 1]

    def test_identical_samples_stable(self):
        samples = [single([0.5, 0.5])] * 4
        assert order_by_uncertainty(samples, LOG, "total").perm.tolist() == [0, 1, 2, 3]

    def test_three_samples_log_total(self):
        # entropies roughly 0.647, 0.056, 0.423: ascending order is 1, 2, 0
        samples = [single([0.65, 0.35]), single([0.99, 0.01]), single([0.85, 0.15])]
        assert order_by_uncertainty(samples, LOG, "total").perm.tolist() == [1, 2, 0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            order_by_uncertainty([], LOG, "total")

    def test_mixed_class_counts_rejected(self):
        with pytest.raises(UqscoreError, match=r"^samples disagree on class count: \[2, 3\]$"):
            order_by_uncertainty(
                [single([0.5, 0.5]), SecondOrderSample([[0.2, 0.3, 0.5]])], LOG, "total"
            )


class TestHarmonicWeights:
    def test_small_values(self):
        w = harmonic_weights(5)
        np.testing.assert_allclose(
            w, [137 / 60, 77 / 60, 47 / 60, 27 / 60, 12 / 60], atol=1e-14
        )

    def test_monotone_positive(self):
        for n in (1, 2, 7, 100, 501):
            w = harmonic_weights(n)
            assert np.all(np.diff(w) < 0) or n == 1
            assert np.all(w > 0)
            assert w[-1] == 1.0 / n


class TestAulc:
    def test_single_instance(self):
        got = aulc([0.37], Ordering(np.array([0])))
        assert got.aulc == 0.37
        assert got.curve.tolist() == [0.37]

    def test_two_instances_both_orders(self):
        assert aulc([0.0, 1.0], Ordering(np.array([0, 1]))).aulc == pytest.approx(0.25, abs=1e-15)
        assert aulc([0.0, 1.0], Ordering(np.array([1, 0]))).aulc == pytest.approx(0.75, abs=1e-15)

    def test_three_instances_hand_sum(self):
        got = aulc([0.1, 0.5, 0.2], Ordering(np.array([0, 2, 1])))
        assert got.aulc == pytest.approx((0.1 + 0.15 + 0.8 / 3) / 3, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(UqscoreError, match="^2 losses vs permutation of 3$"):
            aulc([0.1, 0.2], Ordering(np.array([0, 1, 2])))

    def test_negative_and_nan_losses_rejected(self):
        with pytest.raises(ValueError):
            aulc([0.1, -0.2], Ordering(np.array([0, 1])))
        with pytest.raises(ValueError):
            aulc_weighted([0.1, math.nan], Ordering(np.array([0, 1])))

    def test_infinite_loss_poisons_suffix(self):
        got = aulc([0.5, math.inf, 0.1], Ordering(np.array([0, 1, 2])))
        assert got.curve[0] == 0.5
        assert math.isinf(got.curve[1]) and math.isinf(got.curve[2])
        assert math.isinf(got.aulc)

    def test_form_equivalence_random(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 200))
            losses = rng.random(n)
            ordering = Ordering(rng.permutation(n))
            assert aulc(losses, ordering).aulc == pytest.approx(
                aulc_weighted(losses, ordering), abs=1e-12
            )

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40), st.randoms())
    @settings(max_examples=150, deadline=None)
    def test_form_equivalence_property(self, losses, pyrandom):
        perm = list(range(len(losses)))
        pyrandom.shuffle(perm)
        ordering = Ordering(np.array(perm))
        assert aulc(losses, ordering).aulc == pytest.approx(
            aulc_weighted(losses, ordering), abs=1e-12
        )

    def test_multiset_relabeling_invariance(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 30))
            losses = rng.random(n)
            perm = rng.permutation(n)
            relabel = rng.permutation(n)
            # the same evaluated sequence expressed under a relabeling
            relabeled_losses = losses[relabel]
            inverse = np.argsort(relabel)
            a = aulc(losses, Ordering(perm)).aulc
            b = aulc(relabeled_losses, Ordering(inverse[perm])).aulc
            assert a == pytest.approx(b, abs=1e-12)


class TestBruteforce:
    def test_three_losses(self):
        ordering, best = optimal_aulc_bruteforce([0.5, 0.1, 0.2])
        assert ordering.perm.tolist() == [1, 2, 0]
        assert best == pytest.approx((0.1 + 0.15 + 0.8 / 3) / 3, abs=1e-12)

    def test_all_equal_lexicographic_tie(self):
        ordering, best = optimal_aulc_bruteforce([0.3, 0.3, 0.3])
        assert ordering.perm.tolist() == [0, 1, 2]
        assert best == pytest.approx(0.3, abs=1e-12)

    def test_two_losses(self):
        ordering, best = optimal_aulc_bruteforce([0.0, 1.0])
        assert ordering.perm.tolist() == [0, 1]
        assert best == pytest.approx(0.25, abs=1e-15)

    def test_guard(self):
        with pytest.raises(UqscoreError, match=r"^brute force over 9! permutations refused \(max n=8\)$"):
            optimal_aulc_bruteforce(np.zeros(9))

    def test_all_infinite_losses(self):
        ordering, best = optimal_aulc_bruteforce([math.inf, math.inf])
        assert ordering.perm.tolist() == [0, 1]
        assert math.isinf(best)

    def test_ascending_sort_is_optimal(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 8))
            losses = rng.random(n)
            _, best = optimal_aulc_bruteforce(losses)
            ascending = aulc(losses, Ordering(np.argsort(losses, kind="stable")))
            assert best == pytest.approx(ascending.aulc, abs=1e-9)


def _alignment_corpus(seed, n_families=30):
    """Instances whose rule orderings genuinely differ.

    Four tight-member families dissociate argmax margin from tail entropy;
    a fifth has widely spread members, so epistemic-only orderings rank it
    apart from its actual risk.
    """
    rng = np.random.default_rng(seed)
    bases = [
        np.array([0.52, 0.44, 0.02, 0.02]),
        np.array([0.70, 0.10, 0.10, 0.10]),
        np.array([0.92, 0.04, 0.02, 0.02]),
        np.array([0.30, 0.28, 0.22, 0.20]),
    ]
    truths, samples = [], []
    for _ in range(n_families):
        for base in bases:
            theta = rng.dirichlet(base * 60)
            truths.append(theta)
            samples.append(SecondOrderSample(rng.dirichlet(theta * 300.0, size=8)))
        theta = rng.dirichlet(np.array([0.45, 0.35, 0.1, 0.1]) * 50)
        truths.append(theta)
        samples.append(SecondOrderSample(rng.dirichlet(theta * 6.0, size=8)))
    return truths, samples


def _expected_aulc(samples, truths, task_rule, unc_rule, component):
    costs = expected_loss(task_rule, np.array([s.mean for s in samples]), truths)
    return aulc(costs, order_by_uncertainty(samples, unc_rule, component)).aulc


class TestRunSelectivePrediction:
    def test_correct_singleton_zero_one(self):
        sample = single([0.8, 0.2])
        got = run_selective_prediction([(sample, 1)], ZERO_ONE, ZERO_ONE, "total")
        assert got.aulc == 0.0

    def test_better_instance_first_scores_lower(self):
        # A: confident and correct; B: uncertain and wrong
        a = single([0.95, 0.05])
        b = single([0.55, 0.45])
        preds = [(a, 1), (b, 2)]
        ascending = run_selective_prediction(preds, ZERO_ONE, ZERO_ONE, "total")
        descending = run_selective_prediction(preds, ZERO_ONE, ZERO_ONE, "total", descending=True)
        assert ascending.aulc < descending.aulc

    def test_descending_reverses_permutation(self):
        samples = [single([0.9, 0.1]), single([0.6, 0.4]), single([0.75, 0.25])]
        asc = order_by_uncertainty(samples, LOG, "total")
        assert asc.reversed().perm.tolist() == asc.perm.tolist()[::-1]

    def test_matched_rule_minimizes_expected_aulc(self):
        """Monte-Carlo alignment check: the uncertainty loss should match
        the task loss, and the total component should be the criterion."""
        seeds = range(5)
        totals = {(t, u): [] for t in RULES for u in RULES}
        components = {(t, c): [] for t in RULES for c in ("total", "aleatoric", "epistemic")}
        for seed in seeds:
            truths, samples = _alignment_corpus(seed)
            for t in RULES:
                for u in RULES:
                    totals[(t, u)].append(_expected_aulc(samples, truths, t, u, "total"))
                for c in ("total", "aleatoric", "epistemic"):
                    components[(t, c)].append(_expected_aulc(samples, truths, t, t, c))
        for t in RULES:
            matched = np.mean(totals[(t, t)])
            for u in RULES:
                assert matched <= np.mean(totals[(t, u)]) + 1e-12, (t, u)
            assert np.mean(components[(t, "total")]) < np.mean(components[(t, "aleatoric")])
            assert np.mean(components[(t, "total")]) < np.mean(components[(t, "epistemic")])

    def test_total_uncertainty_ordering_near_oracle(self):
        """The total-uncertainty ordering lands within a few percent of the
        unbeatable ordering by true instance-wise expected loss."""
        for seed in range(5):
            truths, samples = _alignment_corpus(seed)
            for t in RULES:
                costs = expected_loss(t, np.array([s.mean for s in samples]), truths)
                oracle = aulc(costs, Ordering(np.argsort(costs, kind="stable"))).aulc
                via_total = _expected_aulc(samples, truths, t, t, "total")
                assert via_total >= oracle - 1e-12  # the oracle is optimal
                assert via_total <= oracle * 1.05


#: Error guards no other test reaches: (call, error class, text).
GUARDS = [
    (lambda: harmonic_weights(0), ValueError, "need n >= 1"),
    (lambda: aulc([], Ordering(np.arange(0))), UqscoreError, "need at least one instance loss"),
    (lambda: aulc_weighted([0.1, 0.2], Ordering([0])), UqscoreError, "2 losses vs permutation of 1"),
    (
        lambda: run_selective_prediction([], ScoringRule.LOG, ScoringRule.LOG),
        ValueError,
        "need at least one labeled prediction",
    ),
]


@pytest.mark.parametrize("call, error, text", GUARDS)
def test_error_guards(call, error, text):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == text
