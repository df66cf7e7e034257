import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

import uqscore.measures as measures
from uqscore.errors import InconsistentDecomposition, LabelOutOfRange, SimplexError, UqscoreError
from uqscore.measures import (
    COMPONENTS,
    Beliefs,
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
        assert dist.tolist() == [0.5, 0.5]

    def test_renormalize_scales(self):
        dist = validate_simplex([2.0, 2.0], renormalize=True)
        assert dist.tolist() == [0.5, 0.5]

    def test_not_normalized_rejected(self):
        # sum = 0.9 deviates by 0.1, far beyond the 1e-9 tolerance
        with pytest.raises(SimplexError, match="^entries sum to 0.9, not 1$"):
            validate_simplex([0.5, 0.4])

    def test_negative_entry_rejected(self):
        with pytest.raises(SimplexError, match="^negative entry -0.2$"):
            validate_simplex([1.2, -0.2])

    def test_renormalize_clamps_negatives(self):
        dist = validate_simplex([-0.5, 1.0, 1.0], renormalize=True)
        assert dist.tolist() == [0.0, 0.5, 0.5]

    def test_zero_mass(self):
        with pytest.raises(SimplexError, match=r"^entries sum to 0\.0; cannot renormalize$"):
            validate_simplex([0.0, 0.0], renormalize=True)
        with pytest.raises(SimplexError, match=r"^entries sum to 0\.0; cannot renormalize$"):
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
        assert dist[1] == 0.0

    def test_immutable(self):
        dist = validate_simplex([0.5, 0.5])
        with pytest.raises(ValueError):
            dist[0] = 0.9

    def test_rows_are_checked_into_a_float64_copy_of_their_shape(self):
        raw = np.array([[[0.25, 0.75]], [[1.0 + 5e-13, -5e-13]]], dtype=np.float32)
        rows = validate_simplex(raw)
        assert rows.shape == (2, 1, 2) and rows.dtype == np.float64 and not rows.flags.writeable
        assert rows.tolist() == [[[0.25, 0.75]], [[1.0, 0.0]]] and not np.shares_memory(rows, raw)
        assert validate_simplex(np.float32([0.25, 0.75])).tolist() == [0.25, 0.75]
        with pytest.raises(SimplexError, match=r"^entries sum to 0\.9, not 1$"):
            validate_simplex([[0.5, 0.5], [0.5, 0.4]])


class TestSecondOrderSample:
    def test_mean_symmetry(self):
        s = SecondOrderSample([[1.0, 0.0], [0.0, 1.0]])
        assert s.mean.tolist() == [0.5, 0.5]

    def test_mean_hand_average(self):
        s = SecondOrderSample([[0.9, 0.1], [0.5, 0.5]])
        np.testing.assert_allclose(s.mean, [0.7, 0.3], atol=1e-15)
        assert np.shares_memory(s.mean, s.means) and not s.mean.flags.writeable

    def test_single_member_identity(self):
        s = SecondOrderSample([[0.3, 0.7]])
        assert s.mean.tolist() == [0.3, 0.7]

    def test_empty_rejected(self):
        with pytest.raises(SimplexError):
            SecondOrderSample(np.empty((0, 2)))

    def test_equality_by_value_and_repr(self):
        sample = SecondOrderSample([[0.9, 0.1], [0.5, 0.5]])
        assert sample == SecondOrderSample(np.array([[0.9, 0.1], [0.5, 0.5]]))
        assert sample != SecondOrderSample([[0.5, 0.5], [0.9, 0.1]])
        assert sample.__eq__(sample.matrix) is NotImplemented and sample.__eq__(sample.mean) is NotImplemented
        assert repr(sample) == "SecondOrderSample(M=2, K=2)"
        assert repr(SecondOrderSample([[0.2, 0.3, 0.5]])) == "SecondOrderSample(M=1, K=3)"

    def test_zero_mean_entry_implies_member_zeros(self):
        s = SecondOrderSample([[0.5, 0.5, 0.0], [0.25, 0.75, 0.0]])
        assert s.mean[2] == 0.0
        assert np.all(s.matrix[:, 2] == 0.0)

    def test_subnormal_dust_averaging_to_zero_is_dropped(self):
        # half the smallest subnormal rounds to a zero mean, so the member entry goes too
        s = SecondOrderSample([[1.0, 5e-324], [1.0, 0.0]])
        assert s.matrix.tolist() == [[1.0, 0.0], [1.0, 0.0]]
        assert s.mean.tolist() == [1.0, 0.0]
        # dust whose mean is not zero stays
        s = SecondOrderSample([[1.0, 5e-324], [1.0, 5e-324]])
        assert s.matrix.tolist() == [[1.0, 5e-324], [1.0, 5e-324]]
        assert s.mean.tolist() == [1.0, 5e-324]


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

    def test_rows_and_labels_of_any_leading_shape(self):
        rows = validate_simplex([[[0.5, 0.5], [1.0, 0.0]], [[0.2, 0.8], [0.6, 0.4]]])
        got = loss(LOG, rows, np.array([[1, 2], [2, 1]]))
        assert got.shape == (2, 2) and got.tolist() == [[math.log(2), math.inf], [-math.log(0.8), -math.log(0.6)]]
        assert np.ndim(loss(LOG, rows[0, 0], 1)) == 0 and np.ndim(loss(LOG, rows[0, 0], np.int64(1))) == 0


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
        with pytest.raises(UqscoreError, match="^prediction has K=2, truth has K=3$"):
            expected_loss(LOG, validate_simplex([0.5, 0.5]), validate_simplex([0.2, 0.3, 0.5]))

    def test_rows_broadcast_against_each_other(self):
        got = expected_loss(LOG, [[1.0, 0.0], [0.5, 0.5]], [1.0, 0.0])
        assert got.shape == (2,) and got.tolist() == [0.0, math.log(2)]


def per_value_loss(rule, p, label):
    """The per-value loss body that the batched loss core replaced, kept as its oracle."""
    y = label - 1
    if rule is LOG:
        py = p[y]
        return math.inf if py == 0.0 else -math.log(py)
    if rule is BRIER:
        diff = p.copy()
        diff[y] -= 1.0
        return float(np.square(diff).sum())
    if rule is ZERO_ONE:
        return 0.0 if int(np.argmax(p)) == y else 1.0
    return 1.0 - float(p[y]) / float(np.linalg.norm(p))


def awkward_rows(rng, k, n):
    """(n, k) simplex rows: sparse Dirichlet draws, exact zeros in every third, a tied argmax in every fourth."""
    rows = rng.dirichlet(np.full(k, 0.5), n)
    for row in rows[::3]:
        cols = rng.random(k) < 0.3
        cols[rng.integers(k)] = False
        row[cols] = 0.0
    rows[1::4, 0] = rows[1::4, -1] = rows[1::4].max(axis=1)  # the first and the last class tie
    return rows / rows.sum(axis=1, keepdims=True)


class TestLossCore:
    #: (K, rows): 64 000 (row, label) values per rule in all; at K = 3000 expected_loss takes its labels in blocks
    SHAPES = [(2, 3000), (3, 2000), (4, 2000), (10, 1000), (257, 40), (1000, 12), (3000, 4)]

    @pytest.mark.parametrize("k, n", SHAPES)
    def test_equals_the_per_value_loss_bit_for_bit(self, k, n):
        rng = np.random.default_rng(k)
        rows = awkward_rows(rng, k, n)
        # the oracle sees each row as a fresh array, as loss() of one validate_simplex row does
        want = {rule: np.array([[per_value_loss(rule, np.array(row), y) for y in range(1, k + 1)] for row in rows])
                for rule in RULES}
        buf = np.empty(n * k + 7)
        for j in range(k):  # every row meets every label, its buffer shifted by j % 8 values
            view = buf[j % 8 : j % 8 + n * k].reshape(n, k)
            view[:] = rows
            labels = (np.arange(n) + j) % k + 1
            for rule in RULES:
                got = loss(rule, view, labels)
                assert got.tobytes() == want[rule][np.arange(n), labels - 1].tobytes(), (rule, j)
        picked = rng.choice(n, size=min(n, 25), replace=False)
        refs = {rule: [] for rule in RULES}
        for i in picked:
            prediction, truth = validate_simplex(rows[i]), validate_simplex(rows[(i + 1) % n])
            for rule in RULES:
                y = int(rng.integers(1, k + 1))
                assert np.float64(loss(rule, prediction, y)).tobytes() == want[rule][i, y - 1].tobytes()
                ref = 0.0  # the old expected_loss: one per-value loss per label, in label order
                for ty, ly in zip(truth, want[rule][i]):
                    if ty != 0.0:
                        ref += ty * ly
                assert np.float64(expected_loss(rule, prediction, truth)).tobytes() == np.float64(ref).tobytes()
                refs[rule].append(ref)
        for rule in RULES:  # the picked pairs as one batch give each pair's bits
            got = expected_loss(rule, rows[picked], rows[(picked + 1) % n])
            assert got.tobytes() == np.array(refs[rule]).tobytes(), rule

    def test_expected_loss_memory_is_bounded_at_wide_k(self):
        # the labels reach the core in blocks of at most _CHUNK_VALUES values: no (K, K) temporary (72 MB here)
        rows = awkward_rows(np.random.default_rng(3), 3000, 2)
        prediction, truth = validate_simplex(rows[0]), validate_simplex(rows[1])
        for rule in RULES:
            tracemalloc.start()
            try:
                expected_loss(rule, prediction, truth)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * measures._CHUNK_VALUES * 8, (rule, peak)

    def test_awkward_rows_hold_zeros_and_ties(self):
        rows = awkward_rows(np.random.default_rng(10), 10, 1000)
        assert (rows == 0.0).any(axis=1).sum() > 100
        assert (rows[:, 0] == rows[:, -1]).sum() > 100
        assert np.allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_log_is_inf_at_zero_without_a_warning(self):
        with np.errstate(all="raise"):
            got = loss(LOG, np.array([[1.0, 0.0], [0.5, 0.5]]), [2, 1])
        assert got[0] == math.inf and got[1] == math.log(2)


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

    def test_rows_of_any_leading_shape(self):
        rows = [[[0.5, 0.5], [1.0, 0.0]], [[0.2, 0.8], [0.7, 0.3]]]
        for rule in RULES:
            got = entropy(rule, rows)
            assert got.shape == (2, 2)
            assert got.tolist() == [[entropy(rule, row) for row in pair] for pair in rows]


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
        with pytest.raises(UqscoreError, match="^prediction has K=2, truth has K=3$"):
            divergence(LOG, validate_simplex([0.5, 0.5]), validate_simplex([0.2, 0.3, 0.5]))

    @given(distribution_pairs())
    @settings(max_examples=200, deadline=None)
    def test_properness(self, pair):
        prediction, truth = pair
        for rule in RULES:
            assert divergence(rule, prediction, truth) >= -1e-12
            # expected loss is minimized by telling the truth
            assert expected_loss(rule, truth, truth) <= expected_loss(rule, prediction, truth) + 1e-12

    def test_rows_broadcast_against_each_other(self):
        predictions = [[0.4, 0.6], [1.0, 0.0], [0.7, 0.3]]
        for rule in RULES:
            got = divergence(rule, predictions, [0.7, 0.3])
            assert got.shape == (3,) and got.tolist() == [divergence(rule, p, [0.7, 0.3]) for p in predictions]


def masked_max_zero_one(p, t):
    """The zero-one divergence read as a max over K masked to p's argmax: the oracle for the kernel's gather."""
    hit = np.argmax(p, axis=-1)[..., None] == np.arange(p.shape[-1])
    return t.max(axis=-1) - t.max(axis=-1, where=hit, initial=-np.inf)


class TestZeroOneDivergenceKernel:
    @pytest.mark.parametrize("k", [2, 3, 10, 257, 1000])
    def test_equals_the_masked_max_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        n = 30
        members = rng.dirichlet(np.full(k, 0.5), size=(n, 5))
        members[::3, :, k // 2 :] = 0.0  # exact zeros in a third of the beliefs, and one -0.0 in another third
        members[1::3, 0, -1] = -0.0
        means = members.mean(axis=-2)
        tied = means.copy()  # each row's top mean copied to another class: the first index must win
        top = tied.argmax(axis=-1)
        other = (top + rng.integers(1, k, size=n)) % k
        tied[np.arange(n), other] = tied[np.arange(n), top]
        for p in (means, tied):
            got = measures._divergence_zero_one(p[..., None, :], members)
            want = masked_max_zero_one(p[..., None, :], members)
            assert got.shape == want.shape == (n, 5) and got.tobytes() == want.tobytes()
            for i in range(n):  # one pair of distributions, as divergence() passes them
                got = measures._divergence_zero_one(p[i], members[i, 1])
                assert got.tobytes() == masked_max_zero_one(p[i], members[i, 1]).tobytes()


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
        beliefs = Beliefs.of(members)
        assert np.array_equal(beliefs.means, means)
        for rule in RULES:
            batched = _decompose_arrays(rule, beliefs)
            assert all(part.shape == (30,) for part in batched)
            public = np.array(decompose(rule, beliefs))  # the public batch call, the body of one-item scoring
            assert public.tobytes() == np.array(batched).tobytes() == _decompose_samples([rule], [beliefs])[0].tobytes()
            for i, matrix in enumerate(members):
                sample = SecondOrderSample(matrix)
                single = [part.item() for part in _decompose_arrays(rule, sample)]
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
            _check_triples(*bad)
        # consistent infinities and NaNs pass, as they do one at a time
        fine = [(0.5, 0.3, 0.2), (math.inf, math.inf, 0.0), (math.nan, 0.1, 0.1), (math.inf, 0.2, math.inf)]
        for t in fine:
            _check_triples(*t)
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


class TestBeliefs:
    def test_of_copies_checks_and_gives_each_member_its_own_row(self, rng):
        raw = rng.dirichlet(np.ones(4), size=(5, 3))
        raw[1, 2] = [0.5, 0.5 + 5e-10, 0.0, -5e-13]  # float noise within tolerance, clipped
        beliefs = Beliefs.of(raw)
        assert len(beliefs) == 5 and (beliefs.m, beliefs.k) == (3, 4)
        assert not np.shares_memory(beliefs.members, raw) and raw[1, 2, 3] == -5e-13
        assert np.array_equal(beliefs.members, np.clip(raw, 0.0, 1.0)) and beliefs.members.flags.c_contiguous
        assert np.array_equal(beliefs.means, beliefs.members.mean(axis=1))
        assert beliefs.leaf_ids.tolist() == np.arange(15).reshape(5, 3).tolist()
        assert np.array_equal(beliefs.leaves, beliefs.members.reshape(15, 4))
        for array in (beliefs.members, beliefs.means, beliefs.leaf_ids, beliefs.leaves):
            assert not array.flags.writeable

    def test_renormalize_is_validate_simplex_row_by_row(self, rng):
        raw = rng.random((6, 4, 3)) * 3.0
        raw[2, 1, 0] = -0.25  # clamped to zero
        beliefs = Beliefs.of(raw, renormalize=True)
        want = [validate_simplex(row, renormalize=True) for row in raw.reshape(-1, 3)]
        assert beliefs.members.tobytes() == np.array(want).tobytes()
        with pytest.raises(SimplexError, match=r"^entry 3\.0 exceeds 1$"):
            Beliefs.of([[[3.0, 1.0]]])

    @pytest.mark.parametrize(
        "members, renormalize, text",
        [
            (np.full((3, 2), 0.5), False, r"^expected an \(n, M, K\) array of member distributions with M >= 1$"),
            (np.zeros((3, 0, 2)), False, r"^expected an \(n, M, K\) array of member distributions with M >= 1$"),
            ([[[0.5, 0.6]]], False, r"^entries sum to 1\.1, not 1$"),
            ([[[0.5, np.nan]]], False, r"^probabilities must be finite$"),
            ([[[0.5, np.nan]]], True, r"^probabilities must be finite$"),
            ([[[0.5, 0.5]], [[-1.0, 0.0]]], True, r"^entries sum to 0\.0; cannot renormalize$"),
        ],
    )
    def test_of_raises_the_pinned_texts(self, members, renormalize, text):
        with pytest.raises(SimplexError, match=text):
            Beliefs.of(members, renormalize)

    def test_items_are_read_only_sample_views(self, rng):
        raw = rng.dirichlet(np.ones(3), size=(4, 5))
        beliefs = Beliefs.of(raw)
        views = list(beliefs)
        assert len(views) == 4 and [type(view) for view in views] == [SecondOrderSample] * 4
        for i, view in enumerate(views):
            sample = SecondOrderSample(raw[i])
            for got in (view, beliefs[i], beliefs[i - 4]):
                assert got == sample and len(got) == 1 and (got.m, got.k) == (5, 3)
                assert np.array_equal(got.mean, sample.mean) and got.means.tobytes() == sample.means.tobytes()
                assert got.leaf_ids.tolist() == sample.leaf_ids.tolist() == [list(range(5))]
                assert all(np.shares_memory(a, beliefs.members) for a in (got.members, got.leaves, got.matrix))
                assert np.shares_memory(got.means, beliefs.means)
                assert not any(a.flags.writeable for a in (got.members, got.means, got.leaf_ids, got.leaves))
        assert views[0].leaf_ids is views[3].leaf_ids  # one shared id row
        with pytest.raises(IndexError):
            beliefs[4]
        with pytest.raises(IndexError):
            beliefs[-5]

    def test_a_sample_is_beliefs_of_one(self):
        sample = SecondOrderSample([[0.9, 0.1], [0.5, 0.5]])
        assert isinstance(sample, Beliefs) and len(sample) == 1
        assert sample.members.shape == (1, 2, 2) and sample.means.tolist() == [[0.7, 0.3]]
        assert sample.leaf_ids.tolist() == [[0, 1]] and sample.leaves is sample.matrix
        assert sample[0] == sample and list(sample) == [sample]


class TestUncertaintyTriple:
    def test_rejects_non_additive(self):
        with pytest.raises(ValueError):
            _check_triples(1.0, 0.2, 0.2)

    def test_rejects_negative_epistemic(self):
        with pytest.raises(ValueError):
            _check_triples(0.5, 0.6, -0.1)

    def test_fields_are_the_components(self):
        assert UncertaintyTriple._fields == COMPONENTS
        assert tuple(UncertaintyTriple(0.5, 0.3, 0.2)) == (0.5, 0.3, 0.2)


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
                    member = validate_simplex(row)
                    for y in range(1, k + 1):
                        assert table[i, y - 1] == pytest.approx(
                            loss(rule, member, y), abs=1e-12
                        ) or (math.isinf(table[i, y - 1]) and math.isinf(loss(rule, member, y)))


#: Error guards no other test reaches: (call, error class, text).
GUARDS = [
    (lambda: entropy(LOG, []), SimplexError, "expected a non-empty probability vector"),
    (lambda: entropy(LOG, [math.nan, 1.0]), SimplexError, "probabilities must be finite"),
    (lambda: validate_simplex([]), SimplexError, "expected a non-empty probability vector"),
    (lambda: SecondOrderSample([0.5, 0.5]), SimplexError, "expected an (M, K) matrix of member distributions"),
    (
        lambda: _check_triples(-1.0, -1.0, 0.0),
        InconsistentDecomposition,
        "uncertainty components must be nonnegative",
    ),
]


@pytest.mark.parametrize("call, error, text", GUARDS)
def test_error_guards(call, error, text):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == text
