import numpy as np
import pytest

from uqscore.active import (
    AcquisitionStrategy,
    ActiveLearningTrace,
    LearnerConfig,
    TabularDataset,
    _leaf_ids,
    acquire,
    ensemble_zero_one_loss,
    fit,
    make_blobs,
    make_epistemic_gap,
    predict_pool,
    run_active_learning,
)
from uqscore.benchmarks import GAP_LEARNER
from uqscore.errors import BadConfig, LabelOutOfRange, UqscoreError
from uqscore.measures import COMPONENTS, Beliefs, ScoringRule, SecondOrderSample, _build_beliefs, decompose
from uqscore.verify import random_belief

from conftest import RULES

LOG = ScoringRule.LOG
ZERO_ONE = ScoringRule.ZERO_ONE


def predict_one(learner, x):
    """The belief about one input: a batch of one from predict_pool."""
    return SecondOrderSample(predict_pool(learner, np.asarray([x], dtype=np.float64)).members[0])


def member_stack(learner, x):
    """The descent, then the gather of each member's leaf row: the (n, M, K) members before any belief build."""
    return np.take(learner.leaf, _leaf_ids(learner, x), axis=0)


class TestConfigsAndTypes:
    def test_learner_config_validation(self):
        with pytest.raises(BadConfig):
            LearnerConfig(n_trees=1)
        with pytest.raises(BadConfig):
            LearnerConfig(depth_cap=-1)
        with pytest.raises(BadConfig):
            LearnerConfig(min_leaf=0)
        with pytest.raises(BadConfig):
            LearnerConfig(alpha=-0.5)

    def test_dataset_validation(self):
        with pytest.raises(LabelOutOfRange):
            TabularDataset([[0.0]], [3], 2)
        with pytest.raises(BadConfig):
            TabularDataset([[0.0], [1.0]], [1], 2)
        with pytest.raises(BadConfig):
            TabularDataset([[0.0]], [1], 1)

    def test_strategy_parse(self):
        assert AcquisitionStrategy.parse("random") == AcquisitionStrategy.random() == AcquisitionStrategy()
        s = AcquisitionStrategy.parse("zero-one:epistemic")
        assert s.rule is ZERO_ONE and s.component == "epistemic"
        assert AcquisitionStrategy.parse("log").component == "epistemic"
        assert AcquisitionStrategy.parse("brier:total").label == "brier-total"
        with pytest.raises(BadConfig):
            AcquisitionStrategy.parse("entropy:epistemic")


def out_of_range_split():
    data = make_blobs(2, 4, d=1, spread=0.5, centers_seed=1, noise_seed=2)
    run_active_learning(data, ([0, 1], [2, 3], [data.n]), LearnerConfig(), AcquisitionStrategy.random(), 1, 1, 0)


#: Error guards no other test reaches: (call, error class, text).
GUARDS = [
    (lambda: TabularDataset([0.0, 1.0], [1, 2], 2), BadConfig, "features must be an (n, d) matrix with d >= 1"),
    (lambda: make_blobs(2, 5, d=0), BadConfig, "need at least one feature"),
    (
        lambda: AcquisitionStrategy(rule=LOG),
        BadConfig,
        "uncertainty acquisition needs a rule and a component; random takes neither",
    ),
    (
        lambda: acquire(np.zeros((3, 2, 2)), AcquisitionStrategy.random(), -1, np.random.default_rng(0)),
        BadConfig,
        "batch must be >= 0",
    ),
    (lambda: ActiveLearningTrace([1, 2], [0.5]), ValueError, "trace needs matching 1-d count and loss arrays"),
    (out_of_range_split, BadConfig, "split indices out of range"),
]


@pytest.mark.parametrize("call, error, text", GUARDS)
def test_error_guards(call, error, text):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == text


class TestMakeBlobs:
    def test_deterministic(self):
        a = make_blobs(3, 10, d=2, spread=0.3, centers_seed=5, noise_seed=6)
        b = make_blobs(3, 10, d=2, spread=0.3, centers_seed=5, noise_seed=6)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_separable_limit_nearest_center(self):
        data = make_blobs(3, 40, d=2, spread=0.001, centers_seed=2, noise_seed=3)
        centers = np.stack(
            [data.features[data.labels == c].mean(axis=0) for c in (1, 2, 3)]
        )
        fresh = make_blobs(3, 40, d=2, spread=0.001, centers_seed=2, noise_seed=4)
        dists = np.linalg.norm(fresh.features[:, None, :] - centers[None], axis=2)
        predicted = np.argmin(dists, axis=1) + 1
        assert np.mean(predicted != fresh.labels) == 0.0

    def test_heavy_overlap_defeats_learner(self, rng):
        # Monte-Carlo Bayes-error oracle at spread = 10x the center distance:
        # even the nearest-center rule (Bayes-optimal for this symmetric
        # mixture) errs on nearly half of 1e5 fresh draws
        centers = np.array([[0.0, 0.0], [1.0, 0.0]])
        component = rng.integers(0, 2, size=100_000)
        draws = centers[component] + 10.0 * rng.normal(size=(100_000, 2))
        nearest = np.linalg.norm(draws[:, None, :] - centers[None], axis=2).argmin(axis=1)
        bayes_error_estimate = np.mean(nearest != component)
        assert bayes_error_estimate >= 0.4

        data = make_blobs(2, 150, d=2, spread=10.0, centers_seed=0, noise_seed=1)
        test = make_blobs(2, 150, d=2, spread=10.0, centers_seed=0, noise_seed=2)
        learner = fit(LearnerConfig(n_trees=10, depth_cap=4), data, seed=0)
        assert ensemble_zero_one_loss(learner, test.features, test.labels) >= 0.4

    def test_explicit_centers(self):
        data = make_blobs(2, 5, d=2, spread=0.1, centers=[[0.0, 0.0], [4.0, 0.0]], noise_seed=1)
        assert abs(data.features[data.labels == 1][:, 0].mean()) < 1.0
        with pytest.raises(BadConfig):
            make_blobs(2, 5, d=2, centers=[[0.0, 0.0]])

    def test_bad_config(self):
        with pytest.raises(BadConfig):
            make_blobs(1, 10)
        with pytest.raises(BadConfig):
            make_blobs(2, 0)
        with pytest.raises(BadConfig):
            make_blobs(2, 5, spread=-1.0)


class TestEpistemicGap:
    def test_deterministic(self):
        a_data, a_split = make_epistemic_gap(20, 5, seed=3)
        b_data, b_split = make_epistemic_gap(20, 5, seed=3)
        assert all(np.array_equal(a, b) for a, b in zip(a_split, b_split))
        assert np.array_equal(a_data.features, b_data.features)

    def test_degenerate_rejected(self):
        with pytest.raises(BadConfig):
            make_epistemic_gap(20, 0, seed=0)
        with pytest.raises(BadConfig):
            make_epistemic_gap(0, 5, seed=0)

    def test_split_structure(self):
        data, (initial, pool, test) = make_epistemic_gap(30, 8, seed=1)
        assert initial.size == 60 and pool.size == 68
        assert np.intersect1d(initial, pool).size == 0
        assert data.n == 60 + 68 + 90
        assert test.tolist() == np.setdiff1d(np.arange(data.n), np.concatenate([initial, pool])).tolist()

    def test_gap_pool_shows_more_zero_one_epistemic_mass(self):
        # the far cluster sits >= 6 sigma from the covered region; the
        # ensemble's members disagree there and much less elsewhere
        for seed in range(5):
            data, (initial, pool, _) = make_epistemic_gap(40, 30, seed=seed)
            learner = fit(GAP_LEARNER, data.subset(initial), seed=seed)
            eu = decompose(ZERO_ONE, predict_pool(learner, data.features[pool])).epistemic
            is_gap = data.features[pool][:, 1] > 4.0
            assert eu[is_gap].mean() > eu[~is_gap].mean()


class TestFitAndPredict:
    def test_single_point_smoothed_leaf(self):
        data = TabularDataset([[0.0, 0.0]], [1], 2)
        learner = fit(LearnerConfig(n_trees=3, alpha=1.0), data, seed=7)
        sample = predict_one(learner, [0.0, 0.0])
        np.testing.assert_allclose(sample.matrix, [[2 / 3, 1 / 3]] * 3, atol=1e-15)

    def test_separable_training_loss_zero(self):
        data = make_blobs(2, 40, d=2, spread=0.02, centers_seed=1, noise_seed=2)
        learner = fit(LearnerConfig(n_trees=8, depth_cap=3), data, seed=0)
        assert ensemble_zero_one_loss(learner, data.features, data.labels) == 0.0

    def test_fit_deterministic_on_probe_grid(self, rng):
        data = make_blobs(2, 30, d=2, spread=0.4, centers_seed=3, noise_seed=4)
        cfg = LearnerConfig(n_trees=6, depth_cap=4)
        probe = rng.normal(size=(25, 2))
        a = predict_pool(fit(cfg, data, seed=11), probe)
        b = predict_pool(fit(cfg, data, seed=11), probe)
        assert np.array_equal(a.members, b.members) and np.array_equal(a.leaf_ids, b.leaf_ids)

    def test_pool_rows_are_checked_beliefs(self, rng):
        # each row equals the matrix SecondOrderSample builds from it, and
        # the row mean equals that sample's mean, bit for bit
        data = make_blobs(3, 30, d=2, spread=0.5, centers_seed=3, noise_seed=4)
        learner = fit(LearnerConfig(n_trees=9, depth_cap=4, alpha=0.0), data, seed=2)
        beliefs = predict_pool(learner, rng.normal(size=(40, 2)))
        pool = beliefs.members
        assert len(beliefs) == 40 and isinstance(len(beliefs), int)
        assert pool.shape == (40, 9, 3) and pool.dtype == np.float64
        assert pool.flags.c_contiguous and not pool.flags.writeable
        means = pool.mean(axis=-2)
        assert np.array_equal(beliefs.means, means) and not beliefs.means.flags.writeable
        for row, mean in zip(pool, means):
            sample = SecondOrderSample(row)
            assert np.array_equal(row, sample.matrix)
            assert np.array_equal(mean, sample.mean)

    def test_leaf_rows_are_checked_once_per_fit(self, rng, monkeypatch):
        # predict_pool gathers copies of the leaf rows, so only fit checks
        # them; the pool's means are still checked
        import uqscore.active as active_module
        import uqscore.measures as measures_module

        calls = []
        check = measures_module._check_simplex_rows
        spy = lambda rows: calls.append(rows.shape) or check(rows)  # noqa: E731
        monkeypatch.setattr(active_module, "_check_simplex_rows", spy)
        monkeypatch.setattr(measures_module, "_check_simplex_rows", spy)
        data = make_blobs(3, 30, d=2, spread=0.5, centers_seed=3, noise_seed=4)
        learner = fit(LearnerConfig(n_trees=9, depth_cap=4), data, seed=2)
        assert calls == [learner.leaf.shape]
        calls.clear()
        predict_pool(learner, rng.normal(size=(40, 2)))
        assert calls == [(40, 3)]

    def test_pool_rows_match_member_order(self):
        # member j of row i is tree j's leaf distribution for input i
        data = make_blobs(2, 20, d=2, spread=0.6, centers_seed=1, noise_seed=2)
        learner = fit(LearnerConfig(n_trees=5, depth_cap=3), data, seed=4)
        x = data.features[:7]
        pool = predict_pool(learner, x).members
        for i in range(7):
            assert np.array_equal(pool[i], predict_pool(learner, x[i : i + 1]).members[0])

    def test_empty_train(self):
        data = make_blobs(2, 3, d=2)
        with pytest.raises(BadConfig, match="^cannot fit on an empty training set$"):
            fit(LearnerConfig(), data.subset(np.array([], dtype=np.intp)), seed=0)

    def test_predict_dimension_mismatch(self):
        data = make_blobs(2, 5, d=3)
        learner = fit(LearnerConfig(n_trees=2), data, seed=0)
        with pytest.raises(UqscoreError, match=r"^inputs must be \(n, 3\)$"):
            predict_one(learner, [0.0, 0.0])

    @pytest.mark.parametrize("n_labels", [1, 5, 39, 41])
    def test_zero_one_loss_needs_one_label_per_input(self, n_labels):
        data = make_blobs(2, 20, d=2, spread=0.6, centers_seed=1, noise_seed=2)
        learner = fit(LearnerConfig(n_trees=3, depth_cap=2), data, seed=0)
        with pytest.raises(UqscoreError, match=rf"^labels of shape \({n_labels},\) for 40 inputs$"):
            ensemble_zero_one_loss(learner, data.features, np.resize(data.labels, n_labels))
        with pytest.raises(UqscoreError, match=r"^labels of shape \(40, 1\) for 40 inputs$"):
            ensemble_zero_one_loss(learner, data.features, data.labels[:, None])

    @pytest.mark.parametrize("bad", [0, 3, -1, 1.0])
    def test_zero_one_loss_rejects_labels_outside_1_to_k(self, bad):
        data = make_blobs(2, 20, d=2, spread=0.6, centers_seed=1, noise_seed=2)
        learner = fit(LearnerConfig(n_trees=3, depth_cap=2), data, seed=0)
        labels = data.labels.tolist()
        labels[7] = bad
        with pytest.raises(LabelOutOfRange):
            ensemble_zero_one_loss(learner, data.features, labels)

    def test_identical_members_when_data_is_one_class(self):
        # bootstrap cannot change a single-class sample: all leaves agree
        data = TabularDataset(np.zeros((6, 1)), [1] * 6, 2)
        learner = fit(LearnerConfig(n_trees=4), data, seed=5)
        sample = predict_one(learner, [0.0])
        for rule in RULES:
            assert decompose(rule, sample).epistemic <= 1e-12

    def test_conflicting_bootstrap_draws_split_argmax(self):
        # two points, two trees; seed 10 draws opposite same-class pairs,
        # so the leaf tables put their mass on different classes
        data = TabularDataset([[0.0], [0.0]], [1, 2], 2)
        learner = fit(LearnerConfig(n_trees=2, depth_cap=3), data, seed=10)
        sample = predict_one(learner, [0.0])
        assert sorted(map(tuple, sample.matrix.tolist())) == [(0.25, 0.75), (0.75, 0.25)]
        assert decompose(ZERO_ONE, sample).epistemic > 0.0

    def test_leaf_distributions_reproduce_measures_fixture(self):
        # seed 140 bootstraps 7:1 labels into leaf tables of exactly
        # (0.9, 0.1) and (0.5, 0.5), the frozen decomposition fixture
        data = TabularDataset(np.zeros((8, 1)), [1] * 7 + [2], 2)
        learner = fit(LearnerConfig(n_trees=2, depth_cap=3, alpha=1.0), data, seed=140)
        sample = predict_one(learner, [0.0])
        assert sample.matrix.tolist() == [[0.9, 0.1], [0.5, 0.5]]
        triple = decompose(LOG, sample)
        assert triple.total == pytest.approx(0.6108643020548936, abs=1e-9)
        assert triple.aleatoric == pytest.approx(0.5091150769756967, abs=1e-9)
        assert triple.epistemic == pytest.approx(0.10174922507919693, abs=1e-9)


# ---------------------------------------------------------------------------
# Reference learner: one recursively grown tree of nested nodes per bootstrap
# draw, split by split.  The flat ensemble must reproduce it bit for bit.
# ---------------------------------------------------------------------------


class RefNode:
    def __init__(self, feature=None, threshold=None, left=None, right=None, dist=None):
        self.feature, self.threshold, self.left, self.right, self.dist = feature, threshold, left, right, dist


def ref_best_split(x, onehot, min_leaf):
    """Best (weighted Gini, feature, threshold) of one node's rows, or None."""
    n, d = x.shape
    best = None
    for f in range(d):
        vals = x[:, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        counts = np.cumsum(onehot[order], axis=0)
        total = counts[-1]
        left_n = np.arange(1, n, dtype=np.float64)
        right_n = n - left_n
        cl = counts[:-1]
        cr = total[None, :] - cl
        gini_l = 1.0 - np.square(cl / left_n[:, None]).sum(axis=1)
        gini_r = 1.0 - np.square(cr / right_n[:, None]).sum(axis=1)
        cost = (left_n * gini_l + right_n * gini_r) / n
        valid = (sv[:-1] < sv[1:]) & (left_n >= min_leaf) & (right_n >= min_leaf)
        if not valid.any():
            continue
        cost = np.where(valid, cost, np.inf)
        i = int(np.argmin(cost))
        if best is None or cost[i] < best[0]:
            thr = (sv[i] + sv[i + 1]) / 2.0
            if thr >= sv[i + 1]:
                thr = sv[i]
            best = (float(cost[i]), f, float(thr))
    return best


def ref_grow(x, y0, k, depth, cfg):
    n = y0.shape[0]
    counts = np.bincount(y0, minlength=k)
    if depth >= cfg.depth_cap or counts.max() == n or n < 2 * cfg.min_leaf:
        return RefNode(dist=(counts + cfg.alpha) / (n + k * cfg.alpha))
    best = ref_best_split(x, np.eye(k)[y0], cfg.min_leaf)
    if best is None:
        return RefNode(dist=(counts + cfg.alpha) / (n + k * cfg.alpha))
    _, f, thr = best
    mask = x[:, f] <= thr
    return RefNode(f, thr, ref_grow(x[mask], y0[mask], k, depth + 1, cfg),
                   ref_grow(x[~mask], y0[~mask], k, depth + 1, cfg))


def ref_fit(cfg, train, seed):
    """Reference trees on the bootstrap draws ``fit`` makes: one child stream per tree, in tree order."""
    y0 = train.labels - 1
    trees = []
    for child in np.random.SeedSequence(seed).spawn(cfg.n_trees):
        idx = np.random.default_rng(child).integers(0, train.n, size=train.n)
        trees.append(ref_grow(train.features[idx], y0[idx], train.k, 0, cfg))
    return trees


def ref_predict(trees, x, k):
    out = np.empty((x.shape[0], len(trees), k))
    for j, root in enumerate(trees):
        stack = [(root, np.arange(x.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if node.feature is None:
                out[idx, j] = node.dist
                continue
            mask = x[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
    return out


def count_nodes(node):
    """Nodes reachable through ``left``/``right`` (None at a leaf)."""
    return 1 if node.left is None else 1 + count_nodes(node.left) + count_nodes(node.right)


def assert_same_nodes(got, want, case):
    """Walk two trees side by side: the same features, threshold bits, shape and leaf rows."""
    stack = [(got, want)]
    while stack:
        a, b = stack.pop()
        assert a.feature == b.feature, case
        if a.feature is None:
            assert np.array_equal(a.dist, b.dist), case
        else:
            assert np.float64(a.threshold).tobytes() == np.float64(b.threshold).tobytes(), case
            stack += [(a.left, b.left), (a.right, b.right)]


def fuzz_case(case):
    """Labels, tied features, a probe set and a config, all drawn from ``case``."""
    rng = np.random.default_rng(case)
    k, d, n = int(rng.integers(2, 13)), int(rng.integers(1, 4)), int(rng.integers(1, 150))
    decimals = int(rng.integers(0, 3))  # coarse rounding makes many ties
    features = np.round(rng.normal(size=(n, d)) * 2.0, decimals)
    if case % 3 == 0:  # neighbouring floats: some midpoints round up, so thresholds get nudged onto values
        features = np.where(rng.random((n, d)) < 0.5, np.nextafter(features, np.inf), features)
    labels = rng.integers(1, k + 1, size=n)
    if case % 5 == 0:  # mostly one class, so pure nodes stop early
        labels = np.where(rng.random(n) < 0.9, 1, labels)
    probe = np.concatenate([features, np.round(rng.normal(size=(40, d)) * 2.5, decimals + 1)])
    cfg = LearnerConfig(
        n_trees=int(rng.integers(2, 12)),
        depth_cap=0 if case % 11 == 0 else int(rng.integers(1, 8)),
        min_leaf=int(rng.integers(1, 4)),
        alpha=float(rng.choice([0.0, 0.5, 1.0])),
    )
    if case % 4 == 1:  # every row listed several times: tied groups of equal rows weigh 3 or more draws
        repeats = int(rng.integers(2, 5))
        features, labels = np.repeat(features, repeats, axis=0), np.repeat(labels, repeats)
    return TabularDataset(features, labels, k), probe, cfg


class TestFlatEnsembleOracle:
    @pytest.mark.parametrize("block", range(10))
    def test_matches_recursive_trees(self, block):
        for case in range(block * 31, (block + 1) * 31):
            train, probe, cfg = fuzz_case(case)
            learner = fit(cfg, train, seed=case)
            trees = ref_fit(cfg, train, case)
            want = ref_predict(trees, probe, train.k)
            assert np.array_equal(member_stack(learner, probe), want), case
            _build_beliefs(want)
            assert np.array_equal(predict_pool(learner, probe).members, want), case
            assert learner.feature.size == sum(count_nodes(root) for root in trees), case
            for got, root in zip(learner.trees, trees, strict=True):
                assert_same_nodes(got, root, case)

    @pytest.mark.parametrize("layout", ["fortran", "strided", "no rows"])
    def test_probe_layouts_match_c_order(self, layout):
        # the descent reads x as one flat C-ordered array, so any other layout must be copied first
        for case in range(0, 40, 2):
            train, probe, cfg = fuzz_case(case)
            learner = fit(cfg, train, seed=case)
            if layout == "fortran":
                x = np.asfortranarray(probe)
            elif layout == "strided":
                wide = np.full((probe.shape[0], 3 * probe.shape[1]), np.nan)
                wide[:, 1::3] = probe
                x = wide[:, 1::3]
            else:
                x = probe[:0]
            want = ref_predict(ref_fit(cfg, train, case), x, train.k)
            assert np.array_equal(member_stack(learner, np.ascontiguousarray(x)), want), case
            assert np.array_equal(member_stack(learner, x), want), case
            assert np.array_equal(predict_pool(learner, x).members, want), case

    def test_trees_are_views_of_the_flat_model(self):
        data = make_blobs(3, 20, d=2, spread=0.5, centers_seed=2, noise_seed=3)
        learner = fit(LearnerConfig(n_trees=4, depth_cap=3), data, seed=1)
        assert learner.trees is learner.trees and len(learner.trees) == 4
        want = ref_predict(learner.trees, data.features, data.k)
        assert np.array_equal(member_stack(learner, data.features), want)


def pool_of(*beliefs):
    """A hand-built pool of checked beliefs, as acquire takes, from (M, K) member lists."""
    return Beliefs.of(np.stack([SecondOrderSample(b).matrix for b in beliefs]))


class TestAcquire:
    def _pool(self):
        agree = [[0.9, 0.1], [0.9, 0.1]]  # EU 0
        disagree = [[0.9, 0.1], [0.3, 0.7]]  # EU > 0
        return pool_of(agree, disagree)

    def test_picks_higher_epistemic(self, rng):
        picked = acquire(self._pool(), AcquisitionStrategy.uncertainty(ZERO_ONE), 1, rng)
        assert picked.tolist() == [1]

    def test_tie_break_lowest_indices(self, rng):
        pool = pool_of(*[[[0.6, 0.4]]] * 5)
        picked = acquire(pool, AcquisitionStrategy.uncertainty(ZERO_ONE), 3, rng)
        assert picked.tolist() == [0, 1, 2]

    def test_batch_equals_pool(self, rng):
        picked = acquire(self._pool(), AcquisitionStrategy.random(), 2, rng)
        assert picked.tolist() == [0, 1]

    def test_batch_too_large(self, rng):
        with pytest.raises(BadConfig, match="^batch 3 exceeds pool size 2$"):
            acquire(self._pool(), AcquisitionStrategy.random(), 3, rng)

    def test_random_is_deterministic_given_state(self):
        pool = pool_of(*[[[0.5, 0.5]]] * 10)
        a = acquire(pool, AcquisitionStrategy.random(), 4, np.random.default_rng(3))
        b = acquire(pool, AcquisitionStrategy.random(), 4, np.random.default_rng(3))
        assert a.tolist() == b.tolist()

    def test_never_prefers_argmax_agreeing_instances(self, rng):
        # while any argmax-disagreeing instance remains in the pool,
        # zero-one epistemic acquisition only takes disagreeing ones
        agree = [[[0.9, 0.1], [0.7, 0.3]]] * 6
        disagree = [[[0.9, 0.1], [0.4, 0.6]]] * 3
        pool = pool_of(*agree[:3], *disagree, *agree[3:])
        picked = acquire(pool, AcquisitionStrategy.uncertainty(ZERO_ONE), 3, rng)
        assert sorted(picked.tolist()) == [3, 4, 5]

    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize("component", COMPONENTS)
    def test_matches_per_belief_ranking_with_planted_ties(self, rule, component):
        # the array ranking picks what ranking per-belief decompose values
        # with the same lexsort picks; repeated beliefs plant exact ties
        rng = np.random.default_rng(23)
        distinct = [random_belief(rng, k=4, m=6).matrix for _ in range(12)]
        rows = [distinct[i] for i in rng.integers(0, 12, size=60)]
        pool = pool_of(*rows)
        values = np.concatenate([getattr(decompose(rule, SecondOrderSample(r)), component) for r in rows])
        assert np.unique(values).size < values.size
        for batch in (1, 7, 30, 60):
            want = np.sort(np.lexsort((np.arange(60), -values))[:batch])
            got = acquire(pool, AcquisitionStrategy.uncertainty(rule, component), batch, rng)
            assert got.tolist() == want.tolist()


class TestRunActiveLearning:
    def test_zero_rounds_single_entry(self):
        data, split = make_epistemic_gap(10, 2, seed=0)
        trace = run_active_learning(data, split, GAP_LEARNER, AcquisitionStrategy.random(), 0, 1, seed=0)
        assert trace.labeled_counts.tolist() == [split[0].size]
        assert trace.test_losses.size == 1

    def test_deterministic_traces(self):
        data, split = make_epistemic_gap(15, 4, seed=2)
        kwargs = dict(rounds=3, batch=3, seed=9)
        a = run_active_learning(data, split, GAP_LEARNER, AcquisitionStrategy.uncertainty(ZERO_ONE), **kwargs)
        b = run_active_learning(data, split, GAP_LEARNER, AcquisitionStrategy.uncertainty(ZERO_ONE), **kwargs)
        assert np.array_equal(a.labeled_counts, b.labeled_counts)
        assert np.array_equal(a.test_losses, b.test_losses)

    def test_full_pool_acquisition_matches_direct_fit(self):
        data, (initial, pool, test) = make_epistemic_gap(12, 3, seed=4)
        rounds, batch = 3, 9
        assert rounds * batch == pool.size
        trace = run_active_learning(
            data, (initial, pool, test), GAP_LEARNER,
            AcquisitionStrategy.random(), rounds, batch, seed=5,
        )
        everything = np.sort(np.concatenate([initial, pool]))
        direct = fit(GAP_LEARNER, data.subset(everything), seed=[5, rounds, 0])
        want = ensemble_zero_one_loss(direct, data.features[test], data.labels[test])
        assert trace.test_losses[-1] == want
        assert trace.labeled_counts.tolist() == [24, 33, 42, 51]

    def test_split_overlap_rejected(self):
        data, (initial, pool, test) = make_epistemic_gap(10, 2, seed=0)
        with pytest.raises(BadConfig, match="^initial, pool, and test index sets must be disjoint$"):
            run_active_learning(data, (initial, initial, test), GAP_LEARNER,
                                AcquisitionStrategy.random(), 1, 1, seed=0)

    def test_batch_budget_guard(self):
        data, split = make_epistemic_gap(10, 2, seed=0)
        with pytest.raises(BadConfig, match="^100 rounds of 10 exceed the pool of 22$"):
            run_active_learning(data, split, GAP_LEARNER,
                                AcquisitionStrategy.random(), 100, 10, seed=0)

    def test_epistemic_beats_random_one_seed(self):
        data, split = make_epistemic_gap(60, 6, seed=1)
        eu = run_active_learning(data, split, GAP_LEARNER,
                                 AcquisitionStrategy.uncertainty(ZERO_ONE), 14, 6, seed=1)
        rand = run_active_learning(data, split, GAP_LEARNER,
                                   AcquisitionStrategy.random(), 14, 6, seed=1)
        cap = 15
        r_eu = eu.rounds_to_reach(0.1)
        r_rand = rand.rounds_to_reach(0.1)
        assert (cap if r_eu is None else r_eu) < (cap if r_rand is None else r_rand)


class TestTrace:
    def test_validation(self):
        with pytest.raises(ValueError):
            ActiveLearningTrace([10, 10], [0.5, 0.4])
        with pytest.raises(ValueError):
            ActiveLearningTrace([10, 20], [0.5, 1.4])

    def test_rounds_to_reach(self):
        trace = ActiveLearningTrace([10, 20, 30], [0.5, 0.08, 0.2])
        assert trace.rounds_to_reach(0.1) == 1
        assert trace.rounds_to_reach(0.01) is None
