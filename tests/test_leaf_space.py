"""Leaf-space pool scoring: every score equals per-row ``decompose`` bit for bit.

``predict_pool`` keeps each member's leaf id, and ``_component_scores(rule, [pool], component)`` takes the terms
of a member alone (its entropy, and zero-one's max and value at the mean's argmax) once per row of the leaf table,
and the divergences that mix a member with its mean once per distinct row of leaf ids.
These tests run on fitted learners and on hand-built leaf tables (wide K, M = 1, exact zeros, argmax
ties, subnormal dust).  ``ref_pool_scores`` keeps the per-pair scoring body that leaf-space scoring
replaced, as the oracle for ``acquire`` and ``ood_trend_run``.  CI re-runs this file with numpy's
higher SIMD dispatch levels disabled.
"""

import json

import numpy as np
import pytest

from uqscore import active, measures, ood
from uqscore.active import (
    AcquisitionStrategy,
    EnsembleLearner,
    LearnerConfig,
    TabularDataset,
    _leaf_ids,
    acquire,
    fit,
    make_blobs,
    make_epistemic_gap,
    predict_pool,
    run_active_learning,
)
from uqscore.benchmarks import GAP_LEARNER, ood_trend_run
from uqscore.errors import InconsistentDecomposition, SimplexError, UqscoreError
from uqscore.measures import COMPONENTS, Beliefs, ScoringRule, SecondOrderSample, _component_scores, decompose
from uqscore.ood import run_ood
from uqscore.records import parse_predictions
from uqscore.selective import order_by_uncertainty

from conftest import RULES


def ref_pool_scores(members, rule, component):
    """The per-pair scoring body that leaf-space scoring replaced, kept as its oracle: every term per member."""
    means = members.mean(axis=-2)
    entropy, divergence = measures._ENTROPY_KERNELS[rule], measures._DIVERGENCE_KERNELS[rule]
    total = entropy(means)
    if members.shape[-2] == 1:
        triple = (total, total, np.zeros_like(total))
    else:
        triple = (total, entropy(members).mean(axis=-1), divergence(means[..., None, :], members).mean(axis=-1))
    measures._check_triples(*triple)
    return triple[COMPONENTS.index(component)]


def assert_scores_exact(pool, case):
    """Each rule's three components equal per-row decompose and the per-pair oracle, bit for bit."""
    for rule in RULES:
        triples = [decompose(rule, SecondOrderSample(row)) for row in pool.members]
        for component in COMPONENTS:
            want = np.concatenate([getattr(t, component) for t in triples])
            got = _component_scores(rule, [pool], component)
            assert got.tobytes() == want.tobytes(), (case, rule, component)
            assert got.tobytes() == ref_pool_scores(pool.members, rule, component).tobytes(), (case, rule, component)


def awkward_table(rng, k, rows):
    """Leaf rows with exact zeros, rows whose top entry is tied at classes 1 and 2, and one-hot rows."""
    table = rng.dirichlet(np.full(k, 0.5), size=rows)
    for row in table[::4]:  # exact zeros in a random half of the classes
        row[rng.permutation(k)[: k // 2]] = 0.0
    table[1::4, 0] = table[1::4, 1] = table[1::4].max(axis=1)
    table /= table.sum(axis=1, keepdims=True)
    table[2::8] = np.eye(k)[rng.integers(0, k, size=table[2::8].shape[0])]
    return table


def table_learner(table, m, depth, rng):
    """M complete trees of ``depth`` splits on one feature, whose leaves read random rows of ``table``."""
    feature, threshold, left, right, leaf = [], [], [], [], []
    for level in range(depth + 1):
        width = m << level  # nodes of this level: tree j's p-th node at j * 2**level + p
        first, below = m * ((1 << level) - 1), m * ((1 << (level + 1)) - 1)
        ids = first + np.arange(width)
        if level < depth:
            feature.append(np.zeros(width, dtype=np.intp))
            threshold.append(rng.normal(size=width))
            left.append(below + 2 * np.arange(width))
            right.append(below + 2 * np.arange(width) + 1)
            leaf.append(np.tile(table[:1], (width, 1)))  # inner rows are never read
        else:
            feature.append(np.full(width, -1))
            threshold.append(np.full(width, np.nan))
            left.append(ids)
            right.append(ids)
            leaf.append(table[rng.integers(0, table.shape[0], size=width)])
    parts = [np.concatenate(p) for p in (feature, threshold, left, right, leaf)]
    return EnsembleLearner(*parts, depth, LearnerConfig(n_trees=m, depth_cap=depth), 1)


class TestLeafSpaceScores:
    @pytest.mark.parametrize("k", [2, 3, 4, 10])
    @pytest.mark.parametrize("m", [2, 7, 8, 9, 30])
    @pytest.mark.parametrize("alpha", [1.0, 0.0])
    def test_fitted_pools(self, k, m, alpha):
        data = make_blobs(k, 25, d=2, spread=0.7, centers_seed=k, noise_seed=m)
        learner = fit(LearnerConfig(n_trees=m, depth_cap=4, alpha=alpha), data, seed=k * m)
        x = np.random.default_rng(m).normal(0.0, 2.0, size=(50, 2))
        pool = predict_pool(learner, x)
        assert pool.leaves is learner.leaf and np.array_equal(pool.leaf_ids, _leaf_ids(learner, x))
        if alpha == 0.0:
            assert (learner.leaf == 0.0).any()  # exact zeros, read in leaf space
        assert_scores_exact(pool, (k, m, alpha))

    @pytest.mark.parametrize("k", [2, 3, 4, 10, 257, 1000])
    @pytest.mark.parametrize("m", [2, 7, 8, 9, 30])
    def test_hand_built_leaf_tables(self, k, m):
        rng = np.random.default_rng(k * 100 + m)
        learner = table_learner(awkward_table(rng, k, 24), m, 3, rng)
        pool = predict_pool(learner, rng.normal(size=(40, 1)))
        assert pool.leaves is learner.leaf
        assert np.array_equal(pool.members, np.take(learner.leaf, pool.leaf_ids, axis=0))
        assert_scores_exact(pool, (k, m))

    @pytest.mark.parametrize("k", [2, 3, 10, 1000])
    def test_one_member(self, k):
        # M = 1 keeps its own branch: the mean is the member, so nothing is epistemic
        rng = np.random.default_rng(k)
        pool = Beliefs.of(awkward_table(rng, k, 30)[:, None, :])
        assert_scores_exact(pool, k)
        assert not _component_scores(measures.ScoringRule.LOG, [pool], "epistemic").any()

    @pytest.mark.parametrize("k", [2, 3, 257])
    def test_argmax_ties_of_the_mean(self, k):
        # two members mirrored in classes 1 and 2 average to a tie on top: the first class must win
        rng = np.random.default_rng(k)
        table = rng.dirichlet(np.ones(k), size=20)
        table[:, 0] += 2.0 * table[:, 1:].max(axis=1)  # class 1 on top
        table /= table.sum(axis=1, keepdims=True)
        mirrored = table.copy()
        mirrored[:, [0, 1]] = table[:, [1, 0]]
        leaves = np.concatenate([table, mirrored])
        ids = np.column_stack([np.arange(20), np.arange(20, 40)])
        members = np.take(leaves, ids, axis=0)
        pool = Beliefs(members, members.mean(axis=-2), ids, leaves)
        assert (pool.means[:, 0] == pool.means[:, 1]).all() and (pool.means.argmax(axis=1) == 0).all()
        assert_scores_exact(pool, k)

    def test_subnormal_dust_pool_scores_its_members(self):
        # alpha = 5e-324 leaves subnormal entries that average to exactly 0; the belief build zeroes
        # them in the members, which are then no longer copies of their leaf rows
        data = make_blobs(3, 12, d=2, spread=0.4, centers_seed=1, noise_seed=2)
        learner = fit(LearnerConfig(n_trees=8, depth_cap=5, alpha=5e-324), data, seed=3)
        x = np.random.default_rng(4).normal(0.0, 2.0, size=(60, 2))
        pool = predict_pool(learner, x)
        assert not np.array_equal(pool.members, np.take(learner.leaf, _leaf_ids(learner, x), axis=0))
        assert_scores_exact(pool, "dust")
        assert pool.leaves is not learner.leaf


def id_pool(leaves, ids):
    """A pool whose member j of point i is row ``ids[i, j]`` of ``leaves``, as ``predict_pool`` builds it."""
    members = np.take(leaves, ids, axis=0)
    return Beliefs(members, members.mean(axis=-2), ids, leaves)


def row_by_row(pool):
    """Whether ``_distinct_rows`` leaves every row of ``pool`` to be scored, rather than each distinct id row once."""
    first, inverse = measures._distinct_rows(pool.leaf_ids, pool.leaves)
    return isinstance(first, slice) and first == inverse == np.s_[:]


class TestDistinctBeliefs:
    """A pool's mean-mixing divergences are taken once per distinct id row, and every score keeps its own bits.

    The pools here are small, so each test but the floor's lowers the size floor to score them that way.
    """

    FLOOR = measures._DISTINCT_MIN_VALUES

    @pytest.fixture(autouse=True)
    def no_size_floor(self, monkeypatch):
        monkeypatch.setattr(measures, "_DISTINCT_MIN_VALUES", 0)

    def test_pools_at_the_size_floor_are_scored_row_by_row(self, monkeypatch):
        monkeypatch.setattr(measures, "_DISTINCT_MIN_VALUES", self.FLOOR)
        rng = np.random.default_rng(5)
        leaves, ids = awkward_table(rng, 2, 30), rng.integers(0, 30, size=(20, 16))  # 32 values a point
        at_floor = id_pool(leaves, ids[rng.integers(0, 20, size=self.FLOOR // 32)])
        assert at_floor.members.size == self.FLOOR
        assert row_by_row(at_floor)
        above = id_pool(leaves, ids[rng.integers(0, 20, size=self.FLOOR // 32 + 1)])
        assert measures._distinct_rows(above.leaf_ids, above.leaves)[0].size == 20
        assert_scores_exact(above, "above the floor")

    @pytest.mark.parametrize("m", [2, 8, 30])
    def test_planted_duplicate_points(self, m):
        data = make_blobs(10, 15, d=2, spread=0.7, centers_seed=m, noise_seed=1)
        learner = fit(LearnerConfig(n_trees=m, depth_cap=4), data, seed=m)
        rng = np.random.default_rng(m)
        points = rng.normal(0.0, 2.0, size=(25, 2))
        pool = predict_pool(learner, points[rng.integers(0, 25, size=80)])
        first, inverse = measures._distinct_rows(pool.leaf_ids, pool.leaves)
        assert first.size <= 25 and np.array_equal(pool.leaf_ids[first][inverse], pool.leaf_ids)
        assert_scores_exact(pool, m)

    @pytest.mark.parametrize("k", [2, 10, 257])
    @pytest.mark.parametrize("m", [2, 9, 30])
    def test_every_point_identical(self, k, m):
        rng = np.random.default_rng(k * m)
        pool = id_pool(awkward_table(rng, k, 12), np.tile(rng.integers(0, 12, size=m), (40, 1)))
        first, _ = measures._distinct_rows(pool.leaf_ids, pool.leaves)
        assert first.tolist() == [0]
        assert_scores_exact(pool, (k, m))

    @pytest.mark.parametrize("k", [2, 10, 257])
    @pytest.mark.parametrize("m", [2, 9, 30])
    @pytest.mark.parametrize("repeats", [0, 1])
    def test_no_row_or_one_row_repeats(self, k, m, repeats):
        rng = np.random.default_rng(k * m + 1)
        ids = rng.permutation(np.unique(rng.integers(0, 30, size=(200, m)), axis=0))[: 40 - repeats]
        pool = id_pool(awkward_table(rng, k, 30), np.concatenate([ids, ids[:repeats]]))
        assert np.unique(pool.leaf_ids, axis=0).shape[0] == 40 - repeats and len(pool.leaves) < pool.leaf_ids.size
        first, inverse = measures._distinct_rows(pool.leaf_ids, pool.leaves)
        assert np.array_equal(np.sort(first), np.arange(40 - repeats))
        assert np.array_equal(pool.leaf_ids[first][inverse], pool.leaf_ids)
        assert_scores_exact(pool, (k, m, repeats))

    def test_dust_pool_is_scored_row_by_row(self):
        # the dust rebuild gives every member its own table row, so no id row repeats
        data = make_blobs(3, 12, d=2, spread=0.4, centers_seed=1, noise_seed=2)
        learner = fit(LearnerConfig(n_trees=8, depth_cap=5, alpha=5e-324), data, seed=3)
        points = np.random.default_rng(4).normal(0.0, 2.0, size=(20, 2))
        pool = predict_pool(learner, np.repeat(points, 3, axis=0))
        assert pool.leaves is not learner.leaf and len(pool.leaves) == pool.leaf_ids.size
        assert row_by_row(pool)
        assert_scores_exact(pool, "dust")

    @pytest.mark.parametrize("k", [3, 10])
    def test_forced_hash_collision_scores_every_row(self, k, monkeypatch):
        # every row hashes to one key: the id check must catch it and score each row
        rng = np.random.default_rng(k)
        ids = rng.integers(0, 20, size=(15, 9))
        pool = id_pool(awkward_table(rng, k, 20), ids[rng.integers(0, 15, size=50)])
        assert measures._distinct_rows(pool.leaf_ids, pool.leaves)[0].size < 50
        monkeypatch.setattr(measures, "_row_keys", lambda ids: np.zeros(len(ids), dtype=np.uint64))
        assert row_by_row(pool)
        assert_scores_exact(pool, k)


class TestPoolBeliefs:
    def test_of_copies_checks_and_indexes_each_member(self):
        rows = np.array([[[0.7, 0.3], [0.2, 0.8]], [[0.5, 0.5], [1.0, 0.0]]])
        pool = Beliefs.of(rows)
        assert len(pool) == 2 and isinstance(len(pool), int)
        assert pool.members is not rows and np.array_equal(pool.members, rows)
        assert not pool.members.flags.writeable and pool.members.flags.c_contiguous
        assert np.array_equal(pool.means, rows.mean(axis=1)) and not pool.means.flags.writeable
        assert pool.leaf_ids.tolist() == [[0, 1], [2, 3]]
        assert np.array_equal(pool.leaves, rows.reshape(4, 2))

    @pytest.mark.parametrize(
        "rows, text",
        [
            (np.full((3, 2), 0.5), r"^expected an \(n, M, K\) array of member distributions with M >= 1$"),
            (np.zeros((3, 0, 2)), r"^expected an \(n, M, K\) array of member distributions with M >= 1$"),
            ([[[0.5, 0.6]]], r"^entries sum to 1\.1, not 1$"),
        ],
    )
    def test_of_rejects_bad_members(self, rows, text):
        with pytest.raises(SimplexError, match=text):
            Beliefs.of(rows)

    def test_predict_pool_fields_are_read_only(self):
        data = make_blobs(3, 20, d=2, spread=0.5, centers_seed=2, noise_seed=3)
        learner = fit(LearnerConfig(n_trees=5, depth_cap=3), data, seed=1)
        pool = predict_pool(learner, data.features)
        for array in (pool.members, pool.means, pool.leaf_ids, pool.leaves):
            assert not array.flags.writeable
        assert pool.leaf_ids.shape == (data.n, 5) and pool.leaf_ids.dtype == np.intp
        assert (learner.feature[pool.leaf_ids] == -1).all()  # every id is a leaf


class TestOracle:
    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize("component", COMPONENTS)
    def test_acquire_picks_what_the_per_pair_body_ranks(self, rule, component):
        data, (initial, pool_idx, _) = make_epistemic_gap(30, 12, seed=7)
        learner = fit(GAP_LEARNER, data.subset(initial), seed=7)
        pool = predict_pool(learner, data.features[pool_idx])
        values = ref_pool_scores(pool.members, rule, component)
        for batch in (1, 5, 40):
            want = np.sort(np.lexsort((np.arange(len(pool)), -values))[:batch])
            got = acquire(pool, AcquisitionStrategy.uncertainty(rule, component), batch, np.random.default_rng(0))
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("strategy", ["log:epistemic", "zero-one:epistemic", "brier:total"])
    def test_active_traces_match_the_per_pair_body(self, strategy, monkeypatch):
        data, split = make_epistemic_gap(25, 8, seed=3)
        args = (data, split, GAP_LEARNER, AcquisitionStrategy.parse(strategy), 5, 4, 3)
        got = run_active_learning(*args)
        monkeypatch.setattr(active, "_component_scores", lambda r, pools, c: ref_pool_scores(pools[0].members, r, c))
        want = run_active_learning(*args)
        assert got.labeled_counts.tolist() == want.labeled_counts.tolist()
        assert got.test_losses.tobytes() == want.test_losses.tobytes()

    def test_ood_trend_aurocs_match_the_per_pair_body(self, monkeypatch):
        got = ood_trend_run(2)
        per_pool = lambda r, pools, c: np.concatenate([ref_pool_scores(p.members, r, c) for p in pools])  # noqa: E731
        monkeypatch.setattr(ood, "_component_scores", per_pool)
        want = ood_trend_run(2)
        assert got == want


def fitted_pool(x_seed, n):
    data = make_blobs(3, 25, d=2, spread=0.7, centers_seed=3, noise_seed=4)
    learner = fit(LearnerConfig(n_trees=9, depth_cap=4), data, seed=5)
    return predict_pool(learner, np.random.default_rng(x_seed).normal(0.0, 2.0, size=(n, 2)))


def mixed_beliefs(tmp_path):
    """One list of every kind of belief: a fitted pool, samples of three shapes, parsed file views, a dust pool."""
    rng = np.random.default_rng(11)
    data = make_blobs(3, 12, d=2, spread=0.4, centers_seed=1, noise_seed=2)
    dust_learner = fit(LearnerConfig(n_trees=8, depth_cap=5, alpha=5e-324), data, seed=3)
    dust = predict_pool(dust_learner, np.random.default_rng(4).normal(0.0, 2.0, size=(60, 2)))
    assert dust.leaves is not dust_learner.leaf  # rebuilt by Beliefs.of, each member its own row
    path = tmp_path / "views.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i, (m, k) in enumerate([(4, 3)] * 6 + [(2, 5)] * 3 + [(9, 3)]):
            fh.write(json.dumps({"id": f"r{i}", "samples": rng.dirichlet(np.full(k, 0.5), m).tolist()}) + "\n")
    views = [rec.sample for rec in parse_predictions(path)]
    samples = [SecondOrderSample(rng.dirichlet(np.ones(k), m)) for m, k in [(1, 3), (9, 3), (5, 7)]]
    return [samples[0], fitted_pool(6, 40), *views[:4], samples[1], dust, samples[2], *views[4:]]


class TestOneScoringPath:
    def test_mixed_list_equals_per_belief_decompose(self, tmp_path):
        items = mixed_beliefs(tmp_path)
        rows = [view for item in items for view in item]
        got = measures._decompose_samples(RULES, items)
        assert got.shape == (len(RULES), 3, len(rows)) == (4, 3, 1 + 40 + 4 + 1 + 60 + 1 + 6)
        for r, rule in enumerate(RULES):
            want = np.concatenate([decompose(rule, view) for view in rows], axis=1)  # (3, rows)
            assert want.tobytes() == np.concatenate([decompose(rule, SecondOrderSample(v.matrix)) for v in rows], 1).tobytes()
            oracle = [np.concatenate([ref_pool_scores(item.members, rule, c) for item in items]) for c in COMPONENTS]
            oracle = np.array(oracle)
            assert got[r].tobytes() == want.tobytes() == oracle.tobytes(), rule

    def test_mixed_list_raises_the_first_bad_belief_in_row_order(self, tmp_path, monkeypatch):
        items = mixed_beliefs(tmp_path)
        log, brier = ScoringRule.LOG, ScoringRule.BRIER
        entropy_log, entropy_brier = measures._ENTROPY_KERNELS[log], measures._ENTROPY_KERNELS[brier]
        # planted faults: each entropy is off for beliefs that favour one class
        monkeypatch.setitem(measures._ENTROPY_KERNELS, log, lambda t: entropy_log(t) + 0.25 * (t[..., 1] > 0.7))
        monkeypatch.setitem(measures._ENTROPY_KERNELS, brier, lambda t: entropy_brier(t) + 0.25 * (t[..., 0] > 0.6))
        faults = []
        for i, view in enumerate(view for item in items for view in item):
            for rule in (log, brier):
                try:
                    decompose(rule, view)
                except InconsistentDecomposition as exc:
                    faults.append((i, str(exc)))
        assert 1 <= faults[0][0] < 41  # inside the fitted pool, the second item
        with pytest.raises(InconsistentDecomposition) as err:
            measures._decompose_samples([log, brier], items)
        assert str(err.value) == faults[0][1]

    @pytest.mark.parametrize("rule", RULES)
    def test_pools_rank_as_their_rows(self, rule):
        pool_a, pool_b = fitted_pool(7, 30), fitted_pool(8, 25)
        for component in COMPONENTS:
            got = run_ood([pool_a], [pool_b], rule, component)
            assert got == run_ood(list(pool_a), list(pool_b), rule, component)
            assert got == run_ood([SecondOrderSample(m) for m in pool_a.members], list(pool_b), rule, component)
            assert (got.n_id, got.n_ood) == (30, 25)
            ordering = order_by_uncertainty([pool_a], rule, component)
            assert ordering.perm.tolist() == order_by_uncertainty(list(pool_a), rule, component).perm.tolist()
            assert ordering.criterion == f"{rule}:{component}"


class TestInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        data = make_blobs(2, 10, d=2, spread=0.5, centers_seed=1, noise_seed=2)
        learner = fit(LearnerConfig(n_trees=3, depth_cap=2), data, seed=0)
        x = data.features.copy()
        x[3, 1] = bad
        with pytest.raises(UqscoreError, match="^inputs must be finite$"):
            predict_pool(learner, x)
        with pytest.raises(UqscoreError, match="^inputs must be finite$"):
            active.ensemble_zero_one_loss(learner, x, data.labels)

    def test_zero_one_loss_on_no_inputs(self):
        data = TabularDataset([[0.0], [1.0]], [1, 2], 2)
        learner = fit(LearnerConfig(n_trees=2), data, seed=0)
        with pytest.raises(UqscoreError, match="^no inputs to take the zero-one loss over$"):
            active.ensemble_zero_one_loss(learner, np.empty((0, 1)), np.empty(0, dtype=int))
        assert len(predict_pool(learner, np.empty((0, 1)))) == 0
