import math

import numpy as np
import pytest
from hypothesis import given, settings

import uqscore.measures as measures
from uqscore.errors import (
    DimensionMismatch,
    InconsistentDecomposition,
    LabelOutOfRange,
    NegativeEntry,
    NotNormalized,
    SimplexError,
    UqscoreError,
    ZeroMass,
)
from uqscore.measures import (
    COMPONENTS,
    CategoricalDistribution,
    ScoringRule,
    SecondOrderSample,
    UncertaintyTriple,
    _check_triples,
    _decompose_arrays,
    _decompose_samples,
    _loss_table,
    decompose,
    divergence,
    entropy,
    expected_loss,
    generic_triple,
    loss,
    validate_simplex,
)

from uqscore.verify import random_belief

from conftest import RULES, STRICT_RULES, beliefs, distribution_pairs, distributions

LOG = ScoringRule.LOG
BRIER = ScoringRule.BRIER
ZERO_ONE = ScoringRule.ZERO_ONE
SPHERICAL = ScoringRule.SPHERICAL

# Hand-derived decompositions, re-derived through generic_triple before
# being frozen here (they guard the closed forms forever after).
FROZEN_TRIPLES = {
    LOG: ([[0.9, 0.1], [0.5, 0.5]], (0.6108643020548936, 0.5091150769756967, 0.10174922507919693)),
    BRIER: ([[1.0, 0.0], [0.0, 1.0]], (0.5, 0.0, 0.5)),
    ZERO_ONE: ([[0.9, 0.1], [0.4, 0.6]], (0.35, 0.25, 0.09999999999999998)),
}


class TestValidateSimplex:
    def test_exact_point_accepted(self):
        dist = validate_simplex([0.5, 0.5])
        assert dist.probs.tolist() == [0.5, 0.5]

    def test_renormalize_scales(self):
        dist = validate_simplex([2.0, 2.0], renormalize=True)
        assert dist.probs.tolist() == [0.5, 0.5]

    def test_not_normalized_rejected(self):
        # sum = 0.9 deviates by 0.1, far beyond the 1e-9 tolerance
        with pytest.raises(NotNormalized):
            validate_simplex([0.5, 0.4])

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntry):
            validate_simplex([1.2, -0.2])

    def test_renormalize_clamps_negatives(self):
        dist = validate_simplex([-0.5, 1.0, 1.0], renormalize=True)
        assert dist.probs.tolist() == [0.0, 0.5, 0.5]

    def test_zero_mass(self):
        with pytest.raises(ZeroMass):
            validate_simplex([0.0, 0.0], renormalize=True)
        with pytest.raises(ZeroMass):
            validate_simplex([-1.0, -2.0], renormalize=True)

    def test_single_class_rejected(self):
        with pytest.raises(SimplexError):
            validate_simplex([1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(SimplexError):
            validate_simplex([np.nan, 1.0])
        with pytest.raises(SimplexError):
            validate_simplex([np.inf, 0.0])
        for raw in ([np.nan, 1.0], [-np.inf, 1.0], [np.inf, 1.0]):
            with pytest.raises(SimplexError, match="finite"):
                validate_simplex(raw, renormalize=True)

    def test_tiny_negative_noise_clamped(self):
        dist = validate_simplex([1.0 + 5e-13, -5e-13])
        assert dist.probs[1] == 0.0

    def test_immutable(self):
        dist = validate_simplex([0.5, 0.5])
        with pytest.raises(ValueError):
            dist.probs[0] = 0.9


class TestSecondOrderSample:
    def test_mean_symmetry(self):
        s = SecondOrderSample([[1.0, 0.0], [0.0, 1.0]])
        assert s.mean.probs.tolist() == [0.5, 0.5]

    def test_mean_hand_average(self):
        s = SecondOrderSample([[0.9, 0.1], [0.5, 0.5]])
        np.testing.assert_allclose(s.mean.probs, [0.7, 0.3], atol=1e-15)

    def test_single_member_identity(self):
        s = SecondOrderSample([[0.3, 0.7]])
        assert s.mean.probs.tolist() == [0.3, 0.7]

    def test_empty_rejected(self):
        with pytest.raises(SimplexError):
            SecondOrderSample(np.empty((0, 2)))

    def test_zero_mean_entry_implies_member_zeros(self):
        s = SecondOrderSample([[0.5, 0.5, 0.0], [0.25, 0.75, 0.0]])
        assert s.mean.probs[2] == 0.0
        assert np.all(s.matrix[:, 2] == 0.0)


class TestLoss:
    def test_log_uniform(self):
        assert loss(LOG, validate_simplex([0.5, 0.5]), 1) == pytest.approx(math.log(2), abs=1e-12)

    def test_brier_hand_value(self):
        # 0.8^2 + (0.2 - 1)^2 = 1.28
        assert loss(BRIER, validate_simplex([0.8, 0.2]), 2) == pytest.approx(1.28, abs=1e-12)

    def test_zero_one_wrong_argmax(self):
        assert loss(ZERO_ONE, validate_simplex([0.8, 0.2]), 2) == 1.0

    def test_spherical_hand_value(self):
        # 1 - 0.6 / sqrt(0.52)
        want = 1.0 - 0.6 / math.sqrt(0.52)
        assert loss(SPHERICAL, validate_simplex([0.6, 0.4]), 1) == pytest.approx(want, abs=1e-12)

    def test_log_infinite_on_zero_probability(self):
        assert loss(LOG, validate_simplex([1.0, 0.0]), 2) == math.inf

    def test_zero_one_tie_break_smallest_index(self):
        uniform = validate_simplex([0.5, 0.5])
        assert loss(ZERO_ONE, uniform, 1) == 0.0
        assert loss(ZERO_ONE, uniform, 2) == 1.0

    @pytest.mark.parametrize("label", [0, 3, -1])
    def test_label_out_of_range(self, label):
        with pytest.raises(LabelOutOfRange):
            loss(LOG, validate_simplex([0.5, 0.5]), label)


class TestExpectedLoss:
    def test_log_uniform_self(self):
        u = validate_simplex([0.5, 0.5])
        assert expected_loss(LOG, u, u) == pytest.approx(math.log(2), abs=1e-12)

    def test_brier_point_mass_vs_uniform(self):
        # 0.5 * 0 + 0.5 * 2
        got = expected_loss(BRIER, validate_simplex([1.0, 0.0]), validate_simplex([0.5, 0.5]))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_zero_one_hand_value(self):
        got = expected_loss(ZERO_ONE, validate_simplex([0.7, 0.3]), validate_simplex([0.2, 0.8]))
        assert got == pytest.approx(0.8, abs=1e-12)

    def test_zero_mass_annihilates_infinity(self):
        point = validate_simplex([1.0, 0.0])
        assert expected_loss(LOG, point, point) == 0.0

    def test_infinity_survives_positive_mass(self):
        assert expected_loss(LOG, validate_simplex([1.0, 0.0]), validate_simplex([0.5, 0.5])) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expected_loss(LOG, validate_simplex([0.5, 0.5]), validate_simplex([0.2, 0.3, 0.5]))


class TestEntropy:
    def test_brier_uniform_gini(self):
        assert entropy(BRIER, validate_simplex([0.5, 0.5])) == pytest.approx(0.5, abs=1e-12)

    def test_zero_one_one_minus_max(self):
        dist = validate_simplex([0.7, 0.3])
        got = entropy(ZERO_ONE, dist)
        assert got == pytest.approx(0.3, abs=1e-12)
        assert got == pytest.approx(expected_loss(ZERO_ONE, dist, dist), abs=1e-12)

    def test_log_point_mass_zero(self):
        assert entropy(LOG, validate_simplex([1.0, 0.0])) == 0.0

    @given(distributions())
    @settings(max_examples=150, deadline=None)
    def test_matches_self_expected_loss(self, dist):
        for rule in RULES:
            h = entropy(rule, dist)
            assert math.isfinite(h) and h >= -1e-12
            assert h == pytest.approx(expected_loss(rule, dist, dist), abs=1e-9)


class TestDivergence:
    def test_identity_is_zero(self):
        u = validate_simplex([0.5, 0.5])
        for rule in RULES:
            assert divergence(rule, u, u) == pytest.approx(0.0, abs=1e-12)

    def test_brier_opposite_corners(self):
        got = divergence(BRIER, validate_simplex([1.0, 0.0]), validate_simplex([0.0, 1.0]))
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_zero_one_hand_value(self):
        got = divergence(ZERO_ONE, validate_simplex([0.4, 0.6]), validate_simplex([0.7, 0.3]))
        assert got == pytest.approx(0.4, abs=1e-12)

    def test_zero_one_shared_argmax_counterexample(self):
        # Not strictly proper: distinct distributions, divergence exactly 0.
        got = divergence(ZERO_ONE, validate_simplex([0.6, 0.4]), validate_simplex([0.9, 0.1]))
        assert got == 0.0

    def test_log_infinite_on_missing_support(self):
        got = divergence(LOG, validate_simplex([1.0, 0.0]), validate_simplex([0.5, 0.5]))
        assert got == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            divergence(LOG, validate_simplex([0.5, 0.5]), validate_simplex([0.2, 0.3, 0.5]))

    @given(distribution_pairs())
    @settings(max_examples=200, deadline=None)
    def test_properness(self, pair):
        prediction, truth = pair
        for rule in RULES:
            assert divergence(rule, prediction, truth) >= -1e-12
            # expected loss is minimized by telling the truth
            assert expected_loss(rule, truth, truth) <= expected_loss(rule, prediction, truth) + 1e-12


class TestDecompose:
    @pytest.mark.parametrize("rule", list(FROZEN_TRIPLES))
    def test_frozen_fixtures(self, rule):
        members, (total, aleatoric, epistemic) = FROZEN_TRIPLES[rule]
        sample = SecondOrderSample(members)
        for path in (decompose, generic_triple):
            triple = path(rule, sample)
            assert triple.total == pytest.approx(total, abs=1e-9)
            assert triple.aleatoric == pytest.approx(aleatoric, abs=1e-9)
            assert triple.epistemic == pytest.approx(epistemic, abs=1e-9)

    def test_single_member_epistemic_exactly_zero(self):
        sample = SecondOrderSample([[0.2, 0.5, 0.3]])
        for rule in RULES:
            assert decompose(rule, sample).epistemic == 0.0
            assert generic_triple(rule, sample).epistemic == 0.0

    def test_log_point_mass_single_member(self):
        triple = generic_triple(LOG, SecondOrderSample([[1.0, 0.0]]))
        assert (triple.total, triple.aleatoric, triple.epistemic) == (0.0, 0.0, 0.0)

    def test_spherical_identical_uniform_members(self):
        triple = generic_triple(SPHERICAL, SecondOrderSample([[0.5, 0.5], [0.5, 0.5]]))
        want = 1.0 - math.sqrt(0.5)
        assert triple.total == pytest.approx(want, abs=1e-12)
        assert triple.aleatoric == pytest.approx(want, abs=1e-12)
        assert triple.epistemic == pytest.approx(0.0, abs=1e-12)

    @given(beliefs())
    @settings(max_examples=250, deadline=None)
    def test_additivity_and_oracle_agreement(self, sample):
        for rule in RULES:
            closed = decompose(rule, sample)
            generic = generic_triple(rule, sample)
            assert abs(closed.total - closed.aleatoric - closed.epistemic) <= 1e-9
            assert closed.total == pytest.approx(generic.total, abs=1e-9)
            assert closed.aleatoric == pytest.approx(generic.aleatoric, abs=1e-9)
            assert closed.epistemic == pytest.approx(generic.epistemic, abs=1e-9)
            assert closed.total >= 0.0 and closed.aleatoric >= 0.0
            assert closed.epistemic >= -1e-12

    @given(beliefs(min_m=1, max_m=6))
    @settings(max_examples=100, deadline=None)
    def test_identical_members_have_no_epistemic_part(self, sample):
        clones = SecondOrderSample(np.tile(sample.matrix[0], (4, 1)))
        for rule in RULES:
            assert decompose(rule, clones).epistemic <= 1e-12

    def test_strictness_of_strictly_proper_rules(self, rng):
        # members differing materially must show positive epistemic mass
        for _ in range(200):
            k = int(rng.integers(2, 7))
            base = rng.dirichlet(np.ones(k))
            other = rng.dirichlet(np.ones(k))
            if np.abs(base - other).max() < 1e-5:
                continue
            sample = SecondOrderSample(np.stack([base, other]))
            for rule in STRICT_RULES:
                assert decompose(rule, sample).epistemic > 1e-12

    def test_members_equal_within_tolerance_carry_no_epistemic_mass(self):
        # perturbations at the simplex tolerance scale stay below 1e-12
        base = np.array([0.3, 0.45, 0.25])
        nudged = base + np.array([1e-10, -1e-10, 0.0])
        sample = SecondOrderSample(np.stack([base, nudged]))
        for rule in RULES:
            assert decompose(rule, sample).epistemic <= 1e-12

    def test_zero_one_shared_argmax_members(self):
        # all members agree with the mean's argmax: zero-one sees no
        # epistemic uncertainty even though the members differ
        sample = SecondOrderSample([[0.9, 0.1], [0.6, 0.4], [0.7, 0.3]])
        assert decompose(ZERO_ONE, sample).epistemic <= 1e-12
        assert decompose(LOG, sample).epistemic > 1e-12


class TestDecomposeArrays:
    @pytest.mark.parametrize("k, m", [(2, 1), (5, 1), (2, 8), (3, 7), (10, 9), (4, 30), (64, 33)])
    def test_stack_equals_each_belief(self, rng, k, m):
        # one (n, M, K) call equals the same function on each (M, K) belief
        # and per-object decompose by ==, and the oracle within 1e-9
        raw = np.stack([random_belief(rng, k=k, m=m).matrix for _ in range(30)])
        raw[::3, :, 0] += raw[::3, :, -1]  # plant a zero column in every third belief
        raw[::3, :, -1] = 0.0
        members = np.stack([SecondOrderSample(matrix).matrix for matrix in raw])
        means = members.mean(axis=-2)
        for rule in RULES:
            batched = _decompose_arrays(rule, members, means)
            assert all(part.shape == (30,) for part in batched)
            for i, matrix in enumerate(members):
                single = _decompose_arrays(rule, matrix, means[i])
                sample = SecondOrderSample(matrix)
                triple = decompose(rule, sample)
                generic = generic_triple(rule, sample)
                for j, name in enumerate(COMPONENTS):
                    assert batched[j][i] == single[j] == getattr(triple, name)
                    assert abs(batched[j][i] - getattr(generic, name)) <= 1e-9

    @pytest.mark.parametrize(
        "bad",
        [
            (1.0, 0.2, 0.2),
            (0.5, 0.6, -0.1),
            (-0.5, -0.2, -0.3),
            (math.inf, 0.5, 0.5),
            (0.5, math.inf, 0.0),
        ],
    )
    def test_array_check_names_the_first_bad_triple(self, bad):
        with pytest.raises(ValueError) as scalar:
            UncertaintyTriple(*bad, LOG)
        # consistent infinities and NaNs pass, as they do one at a time
        fine = [(0.5, 0.3, 0.2), (math.inf, math.inf, 0.0), (math.nan, 0.1, 0.1), (math.inf, 0.2, math.inf)]
        for t in fine:
            UncertaintyTriple(*t, LOG)
        later = (2.0, 0.1, 0.1)
        parts = np.array(fine + [bad, later]).T
        with pytest.raises(ValueError) as batched:
            _check_triples(*parts)
        assert str(batched.value) == str(scalar.value)
        _check_triples(*np.array(fine).T)


def mixed_samples(rng):
    """Beliefs of many (M, K) shapes in shuffled order: M = 1, mixed M under one K, and K = 1000 over several chunks."""
    shapes = [(1, 3)] * 5 + [(m, 4) for m in range(1, 10)] * 2 + [(10, 1000)] * 7 + [(1, 1000)] * 2 + [(10, 10)] * 400
    order = rng.permutation(len(shapes))
    return [random_belief(rng, k=shapes[i][1], m=shapes[i][0]) for i in order]


class TestDecomposeSamples:
    def test_equals_per_object_decompose(self, rng):
        samples = mixed_samples(rng)
        assert len(measures._shape_chunks([s.matrix.shape for s in samples])) == 1 + 9 + 3 + 1 + 2
        rules = [SPHERICAL, LOG, ZERO_ONE, BRIER]
        batched = _decompose_samples(rules, samples)
        assert batched.shape == (4, 3, len(samples))
        for r, rule in enumerate(rules):
            for i, sample in enumerate(samples):
                triple = decompose(rule, sample)
                assert tuple(batched[r, :, i]) == (triple.total, triple.aleatoric, triple.epistemic)

    def test_chunks_keep_each_shape_under_the_value_cap(self, rng):
        shapes = [(10, 1000)] * 7 + [(40, 1000)] * 2 + [(2, 3)] * 6000
        chunks = measures._shape_chunks(shapes)
        assert sorted(i for chunk in chunks for i in chunk) == list(range(len(shapes)))
        for chunk in chunks:
            assert len({shapes[i] for i in chunk}) == 1 and chunk == sorted(chunk)
            m, k = shapes[chunk[0]]
            assert len(chunk) == 1 or len(chunk) * m * k <= measures._CHUNK_VALUES

    def test_raises_the_first_bad_sample_in_record_order(self, rng, monkeypatch):
        samples = mixed_samples(rng)[:120]
        entropy_log, entropy_brier = measures._ENTROPY_KERNELS[LOG], measures._ENTROPY_KERNELS[BRIER]
        # planted faults: each entropy is off for beliefs that favour one class
        monkeypatch.setitem(measures._ENTROPY_KERNELS, LOG, lambda t: entropy_log(t) + 0.25 * (t[..., 1] > 0.7))
        monkeypatch.setitem(measures._ENTROPY_KERNELS, BRIER, lambda t: entropy_brier(t) + 0.25 * (t[..., 0] > 0.6))
        rules = [LOG, BRIER]
        faults = {}
        for i, sample in enumerate(samples):
            for rule in rules:
                try:
                    decompose(rule, sample)
                except ValueError as exc:
                    faults.setdefault(rule, (i, str(exc)))
        # the per-object order is sample by sample, then rule by rule; here it is not the rule-major order
        assert faults[BRIER][0] < faults[LOG][0]
        want = faults[BRIER][1]
        with pytest.raises(InconsistentDecomposition) as err:
            _decompose_samples(rules, samples)
        assert str(err.value) == want
        assert isinstance(err.value, UqscoreError) and isinstance(err.value, ValueError)


class TestUncertaintyTriple:
    def test_rejects_non_additive(self):
        with pytest.raises(ValueError):
            UncertaintyTriple(1.0, 0.2, 0.2, LOG)

    def test_rejects_negative_epistemic(self):
        with pytest.raises(ValueError):
            UncertaintyTriple(0.5, 0.6, -0.1, LOG)

    def test_component_lookup(self):
        t = UncertaintyTriple(0.5, 0.3, 0.2, LOG)
        assert t.component("total") == 0.5
        assert t.component("aleatoric") == 0.3
        assert t.component("epistemic") == 0.2
        with pytest.raises(ValueError):
            t.component("entropy")


class TestLossTable:
    def test_matches_scalar_losses(self, rng):
        # ties the vectorized oracle internals to the pointwise definition
        for _ in range(50):
            k = int(rng.integers(2, 6))
            m = int(rng.integers(1, 5))
            matrix = rng.dirichlet(np.ones(k), m)
            matrix[rng.random(matrix.shape) < 0.2] = 0.0
            matrix /= matrix.sum(axis=1, keepdims=True)
            sample = SecondOrderSample(matrix)
            for rule in RULES:
                table = _loss_table(rule, sample.matrix)
                for i, row in enumerate(sample.matrix):
                    member = CategoricalDistribution(row)
                    for y in range(1, k + 1):
                        assert table[i, y - 1] == pytest.approx(
                            loss(rule, member, y), abs=1e-12
                        ) or (math.isinf(table[i, y - 1]) and math.isinf(loss(rule, member, y)))
