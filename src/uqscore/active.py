"""Pool-based active learning with a bagged decision-tree ensemble.

The learner is deliberately self-contained: depth-capped trees with
axis-aligned splits chosen by Gini impurity, each fit on a bootstrap
resample, with Laplace-smoothed class frequencies at the leaves.  The
per-tree leaf distributions of an input form its second-order sample, so
every uncertainty component from :mod:`uqscore.measures` is available as
an acquisition score.  Synthetic dataset generators provide a separable
baseline (`make_blobs`) and a benchmark whose unlabeled pool hides a
region the initial labels never cover (`make_epistemic_gap`).

The ensemble is one flat node table, grown for all trees at once, breadth
first, and read by flat 1-D gathers that descend every (input, tree) pair
a level per step (see :class:`EnsembleLearner`); its tree objects are views.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadConfig, UqscoreError
from .measures import Beliefs, ScoringRule, _build_beliefs, _check_labels, _check_simplex_rows, _component_scores
from .measures import check_component, loss
from .measures import SecondOrderSample, decompose  # noqa: F401 - unused, but bench/tracing.py wraps them here

__all__ = [
    "TabularDataset",
    "LearnerConfig",
    "EnsembleLearner",
    "AcquisitionStrategy",
    "ActiveLearningTrace",
    "make_blobs",
    "make_epistemic_gap",
    "fit",
    "predict_pool",
    "ensemble_zero_one_loss",
    "acquire",
    "run_active_learning",
]


@dataclass(frozen=True)
class TabularDataset:
    """Feature matrix plus 1-based class labels, which must pass the package's one label rule."""

    features: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self):
        x = np.array(self.features, dtype=np.float64)  # a copy
        if x.ndim != 2 or x.shape[1] < 1:
            raise BadConfig("features must be an (n, d) matrix with d >= 1")
        if not np.isfinite(x).all():
            raise BadConfig("features must be finite")
        if np.shape(self.labels) != (x.shape[0],):
            raise BadConfig("labels must be one class index per feature row")
        if self.k < 2:
            raise BadConfig("need at least two classes")
        y = _check_labels(self.labels, self.k)  # a new array
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "TabularDataset":
        return TabularDataset(self.features[indices], self.labels[indices], self.k)


@dataclass(frozen=True)
class LearnerConfig:
    """Hyperparameters of the bagged-tree ensemble.

    ``alpha`` is the Laplace count added per class at every leaf; the
    default of 1 keeps leaf probabilities strictly inside (0, 1), so log
    losses stay finite and member diversity stays visible.
    """

    n_trees: int = 10
    depth_cap: int = 5
    min_leaf: int = 1
    alpha: float = 1.0

    def __post_init__(self):
        for value in (self.n_trees, self.depth_cap, self.min_leaf):
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise BadConfig(f"n_trees, depth_cap and min_leaf must be integers, got {value!r}")
        if self.n_trees < 2:
            raise BadConfig("need at least two trees for nontrivial epistemic uncertainty")
        if self.depth_cap < 0:
            raise BadConfig("depth_cap must be >= 0")
        if self.min_leaf < 1:
            raise BadConfig("min_leaf must be >= 1")
        if isinstance(self.alpha, bool) or not (0.0 <= self.alpha < np.inf):
            raise BadConfig(f"alpha must be a finite number >= 0, got {self.alpha!r}")


class _Node:
    """One node of a tree as nested objects, a read-only view of the flat model."""

    __slots__ = ("feature", "threshold", "left", "right", "dist")

    def __init__(self, feature=None, threshold=None, left=None, right=None, dist=None):
        self.feature, self.threshold, self.left, self.right, self.dist = feature, threshold, left, right, dist


@dataclass(frozen=True, eq=False)
class EnsembleLearner:
    """A fitted bag of trees as one flat node table; prediction is deterministic given the model.

    Node ``i`` splits on ``feature[i]`` and sends a row to ``left[i]`` when
    its value is ``<= threshold[i]``, else to ``right[i]``.  A leaf has
    feature -1 and is its own left and right child, so a fixed ``depth``
    of descent steps lands every row on a leaf.  ``leaf[i]`` holds the
    smoothed class frequencies of the training rows that reached node
    ``i``; only leaf rows are read.  Tree ``j``'s root is node ``j``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf: np.ndarray
    depth: int
    config: LearnerConfig
    d: int

    @property
    def n_trees(self) -> int:
        return self.config.n_trees

    @cached_property
    def trees(self) -> tuple:
        """Per-tree roots as :class:`_Node` objects, built once on first use; prediction never reads them."""
        nodes = [
            _Node(dist=self.leaf[i]) if f < 0 else _Node(feature=int(f), threshold=float(t))
            for i, (f, t) in enumerate(zip(self.feature.tolist(), self.threshold.tolist()))
        ]
        for node, left, right in zip(nodes, self.left.tolist(), self.right.tolist()):
            if node.dist is None:
                node.left, node.right = nodes[left], nodes[right]
        return tuple(nodes[: self.n_trees])


def fit(config: LearnerConfig, train: TabularDataset, seed) -> EnsembleLearner:
    """Fit the ensemble: one tree per bootstrap resample of ``train``.

    Per-tree sampling streams are spawned from ``seed`` in tree order, so
    refitting with the same configuration, data, and seed reproduces the
    model exactly.  All trees grow together, breadth first: at each depth,
    one sorted pass per feature over the distinct drawn rows of every open
    node, each weighted by its draw count, scores every split by weighted
    Gini impurity.  The splits are those of growing on every draw: a split
    can only fall between distinct values, where the weighted counts are
    the same integers.  Within a node the cheapest threshold wins, ties
    going to the smallest threshold, then to the smallest feature index.
    Thresholds are midpoints between consecutive distinct values, nudged
    back onto the lower value when the midpoint rounds up to the higher
    one, so the train-time partition matches the ``x <= t`` predicate.
    """
    if train.n == 0:
        raise BadConfig("cannot fit on an empty training set")
    n, k, m, min_leaf = train.n, train.k, config.n_trees, config.min_leaf
    if not np.isfinite(k * config.alpha):  # every leaf's denominator would be inf
        raise BadConfig(f"alpha {config.alpha!r} times K = {k} classes is not finite")
    try:  # allocate first: spawning one stream per tree for a huge m would run on with no error
        drawn = np.empty((m, n), dtype=np.intp)
    except (MemoryError, ValueError) as exc:
        raise BadConfig(f"{m} trees of {n} bootstrap rows do not fit in memory") from exc
    for row, child in zip(drawn, np.random.SeedSequence(seed).spawn(m)):
        row[:] = np.bincount(np.random.default_rng(child).integers(0, n, size=n), minlength=n)
    pair = np.flatnonzero(drawn)  # tree * n + training row of each drawn row, tree-major
    w = drawn.ravel()[pair].astype(np.float64)  # draw counts: every weighted sum is an exact integer
    rows_n, src = pair.size, pair % n
    xt = np.ascontiguousarray(train.features[src].T)  # (d, rows): one contiguous row per feature
    y = train.labels[src] - 1
    table = np.eye(k + 1)[y] * w[:, None]  # weighted one-hot labels, then the weight, so cumsums give left_n
    table[:, k] = w
    # per-feature rank of every row, ties in row order: sorting rows by
    # (node, rank) sorts each node's rows stably by value
    rank = np.empty((train.d, rows_n), dtype=np.intp)  # each row inverts its stable sort order
    np.put_along_axis(rank, np.argsort(xt, axis=1, kind="stable"), np.arange(rows_n)[None, :], axis=1)
    rows = np.arange(rows_n)  # rows of the open nodes, in no particular order
    seg = pair // n  # open-node index of each row
    s, first_id, levels = m, 0, []
    while True:
        weight = np.take(w, rows)
        counts = np.bincount(seg * k + np.take(y, rows), weights=weight, minlength=s * k).reshape(s, k)
        size = np.bincount(seg, weights=weight, minlength=s)
        left = first_id + np.arange(s)
        feature, threshold, right = np.full(s, -1), np.full(s, np.nan), left.copy()
        levels.append((feature, threshold, left, right, (counts + config.alpha) / (size + k * config.alpha)[:, None]))
        first_id += s
        open_ = (counts.max(axis=1) < size) & (size >= 2 * min_leaf)
        if len(levels) > config.depth_cap or not open_.any():
            break
        keep = open_[seg]
        r, sg = rows[keep], (np.cumsum(open_) - 1)[seg[keep]]
        cnt = np.bincount(sg)  # distinct rows per open node: two classes, so at least two
        st = np.cumsum(cnt) - cnt
        pos = np.delete(np.arange(r.size), st + cnt - 1)  # split after pos: each node's rows but its last
        psg = np.repeat(np.arange(cnt.size), cnt - 1)
        total = np.take(size[open_], psg)
        node_counts = np.take(counts[open_], psg, axis=0)
        first = st - np.arange(cnt.size)  # each node's first position
        best_cost = np.full(cnt.size, np.inf)
        best_f = np.full(cnt.size, -1)
        best_thr = np.zeros(cnt.size)
        for f in range(train.d):
            rs = r[np.argsort(sg * rows_n + np.take(rank[f], r))]
            sv = np.take(xt[f], rs)
            cum = np.cumsum(np.take(table, rs, axis=0), axis=0)  # exact integer sums
            before = np.take(cum, st - 1, axis=0)  # sums before each node's first row
            before[0] = 0.0
            cl = np.take(cum, pos, axis=0) - np.take(before, psg, axis=0)
            left_n = cl[:, k]
            right_n = total - left_n
            cl = cl[:, :k]
            gini_l = 1.0 - np.square(cl / left_n[:, None]).sum(axis=1)
            gini_r = 1.0 - np.square((node_counts - cl) / right_n[:, None]).sum(axis=1)
            cost = (left_n * gini_l + right_n * gini_r) / total
            valid = (np.take(sv, pos) < np.take(sv, pos + 1)) & (left_n >= min_leaf) & (right_n >= min_leaf)
            cost = np.where(valid, cost, np.inf)
            low = np.minimum.reduceat(cost, first)
            at_low = np.where(cost == np.take(low, psg), np.arange(pos.size), pos.size)
            i = np.take(pos, np.minimum.reduceat(at_low, first))
            better = low < best_cost
            lo, hi = sv[i[better]], sv[i[better] + 1]
            thr = (lo + hi) / 2.0
            best_thr[better] = np.where(thr >= hi, lo, thr)
            best_cost[better] = low[better]
            best_f[better] = f
        split = best_f >= 0
        if not split.any():
            break
        node = np.flatnonzero(open_)[split]
        feature[node], threshold[node] = best_f[split], best_thr[split]
        left[node] = first_id + 2 * np.arange(node.size)
        right[node] = left[node] + 1
        moving = split[sg]
        rows, sg = r[moving], sg[moving]
        seg = 2 * (np.cumsum(split) - 1)[sg] + ~(np.take(xt, best_f[sg] * rows_n + rows) <= best_thr[sg])
        s = 2 * node.size
    feature, threshold, left, right, leaf = (np.concatenate(parts) for parts in zip(*levels))
    _check_simplex_rows(leaf)  # once per fit: predict_pool only gathers copies of these rows
    leaf.setflags(write=False)
    return EnsembleLearner(feature, threshold, left, right, leaf, len(levels) - 1, config, train.d)


def _leaf_ids(learner: EnsembleLearner, x) -> np.ndarray:
    """The (n, M) node id of the leaf each tree sends each row of ``x`` to, members in tree order.

    Every (input, tree) pair descends one level per step, all at once, by 1-D gathers over
    flat node ids; a leaf routes to itself (feature -1 reads any value, NaN threshold is false).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != learner.d:
        raise UqscoreError(f"inputs must be (n, {learner.d})")
    if not np.isfinite(x).all():  # a NaN would go right at every split and still get a belief
        raise UqscoreError("inputs must be finite")
    n, m = x.shape[0], learner.n_trees
    values = np.ascontiguousarray(x).ravel()
    child = np.column_stack([learner.right, learner.left]).ravel()  # so node i steps to 2i + (value <= threshold)
    node = np.tile(np.arange(m), n)  # pair (i, j) at i * m + j
    offset = np.repeat(np.arange(0, n * learner.d, learner.d), m)  # where pair (i, j)'s row starts in values
    index, value, go_left = np.empty_like(node), np.empty(node.size), np.empty(node.size, dtype=bool)
    threshold = index.view(np.float64)  # index's buffer, free between the value gather and the next step
    for _ in range(learner.depth):  # mode="clip": "raise" buffers out; ids are in range but a leaf's -1 at point 0
        np.take(learner.feature, node, out=index, mode="clip")
        index += offset
        np.take(values, index, out=value, mode="clip")
        np.take(learner.threshold, node, out=threshold, mode="clip")
        np.less_equal(value, threshold, out=go_left)
        np.multiply(node, 2, out=index)
        index += go_left
        np.take(child, index, out=node, mode="clip")
    return node.reshape(n, m)


def predict_pool(learner: EnsembleLearner, x: np.ndarray) -> Beliefs:
    """Per-tree leaf distributions of every row of ``x``, their checked means and leaf ids, from one descent.

    Members, in tree order, are copies of leaf rows :func:`fit` checked, in [0, 1], so they are not checked or
    clipped again.  If a mean entry is 0 and the table holds subnormal entries (a mean of normal ones is never 0),
    the dust rule of the belief build may zero member entries: that pool is rebuilt, each member its own row.
    """
    ids = _leaf_ids(learner, x)
    members = np.take(learner.leaf, ids, axis=0)  # point-major: each mean adds as one sample's would
    means = _build_beliefs(members, check_members=False)
    dust = (means == 0.0).any() and ((learner.leaf > 0.0) & (learner.leaf < np.finfo(np.float64).tiny)).any()
    return Beliefs.of(members) if dust else Beliefs(members, means, ids, learner.leaf)


def ensemble_zero_one_loss(learner: EnsembleLearner, x: np.ndarray, labels: np.ndarray) -> float:
    """Mean zero-one loss of the averaged prediction, from the loss core; one label per row of ``x``, at least one."""
    ids = _leaf_ids(learner, x)
    if np.shape(labels) != ids.shape[:1]:
        raise UqscoreError(f"labels of shape {np.shape(labels)} for {ids.shape[0]} inputs")
    if ids.shape[0] == 0:
        raise UqscoreError("no inputs to take the zero-one loss over")
    return float(np.mean(loss(ScoringRule.ZERO_ONE, np.take(learner.leaf, ids, axis=0).mean(axis=1), labels)))


# ---------------------------------------------------------------------------
# Synthetic data.
# ---------------------------------------------------------------------------


def make_blobs(
    k: int,
    n_per_class: int,
    d: int = 2,
    spread: float = 0.2,
    centers_seed: int = 0,
    noise_seed: int = 1,
    centers=None,
) -> TabularDataset:
    """Isotropic Gaussian clusters, one per class, class-major row order.

    ``spread`` is the within-cluster standard deviation relative to the
    smallest inter-center distance, so 0 gives perfectly separable classes
    and large values push the Bayes error toward (K-1)/K.  Pass explicit
    ``centers`` (a (K, d) array) to fix the geometry instead of drawing
    it from ``centers_seed``.
    """
    if k < 2:
        raise BadConfig("need at least two classes")
    if n_per_class < 1:
        raise BadConfig("need at least one point per class")
    if d < 1:
        raise BadConfig("need at least one feature")
    if spread < 0:
        raise BadConfig("spread must be >= 0")
    if centers is None:
        centers = np.random.default_rng(centers_seed).normal(size=(k, d))
    else:
        centers = np.asarray(centers, dtype=np.float64)
        if centers.shape != (k, d):
            raise BadConfig(f"centers must have shape ({k}, {d})")
    with np.errstate(over="ignore", invalid="ignore"):  # huge centers or spread: TabularDataset rejects the result
        diffs = centers[:, None, :] - centers[None, :, :]
        min_dist = np.sqrt(np.square(diffs).sum(axis=2))[~np.eye(k, dtype=bool)].min()
        sigma = spread * min_dist
        noise = np.random.default_rng(noise_seed).normal(size=(k * n_per_class, d))
        features = np.repeat(centers, n_per_class, axis=0) + sigma * noise
    labels = np.repeat(np.arange(1, k + 1), n_per_class)
    return TabularDataset(features, labels, k)


#: Geometry of the epistemic-gap benchmark (the two blobs are shared with
#: the OoD trend check in :mod:`uqscore.benchmarks`).  The two covered class
#: clusters overlap mildly on the x axis, so bootstrap resamples place the
#: learned boundary at noticeably different thresholds.  The gap cluster
#: sits on that contested midline but far away in y, all labeled class 2:
#: trees extrapolate their jittering boundaries into it and disagree on
#: the argmax there until gap points get labeled, after which a single
#: y split corrects the whole region.
_BLOB_CLASS_X = (0.0, 4.0)
_BLOB_SIGMA_Y = 1.0
_GAP_SIGMA_X = 1.0
_GAP_CENTER = (1.6, 8.0)  # biased toward class 1, so extrapolation misses it
_GAP_SIGMA = 0.6
_GAP_CLASS = 2


def _two_blobs(rng: np.random.Generator, n_per_class: int, sigma_x: float) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels of the two class blobs; each class draws x, then y (seeds rely on it)."""
    xs = []
    ys = []
    for cls, cx in enumerate(_BLOB_CLASS_X, start=1):
        pts = np.column_stack(
            [
                rng.normal(cx, sigma_x, size=n_per_class),
                rng.normal(0.0, _BLOB_SIGMA_Y, size=n_per_class),
            ]
        )
        xs.append(pts)
        ys.append(np.full(n_per_class, cls))
    return np.concatenate(xs), np.concatenate(ys)


def _gap_cluster(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    pts = rng.normal(_GAP_CENTER, _GAP_SIGMA, size=(n, 2))
    return pts, np.full(n, _GAP_CLASS)


def make_epistemic_gap(
    n_labeled_region: int,
    n_gap_region: int,
    seed: int = 0,
) -> tuple[TabularDataset, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Two-class data whose pool hides a distant uncovered cluster.

    Returns ``(data, (initial, pool, test))``: the initial labeled indices
    cover only the two near clusters; the pool holds a further covered draw
    plus ``n_gap_region`` points from the far cluster; the test rows (one
    covered draw per class plus ``n_labeled_region`` gap points, so the
    gap carries real test weight) are the rest.  Ensemble
    members trained on the initial set disagree on the argmax inside the
    gap, which is what epistemic acquisition exploits.
    """
    if n_labeled_region < 1:
        raise BadConfig("need at least one labeled point per class")
    if n_gap_region < 1:
        raise BadConfig("need at least one gap point")
    rng = np.random.default_rng(seed)
    blocks = []
    labels = []
    gap_counts = (0, n_gap_region, n_labeled_region)  # initial, pool, test
    for n_gap in gap_counts:
        x_cov, y_cov = _two_blobs(rng, n_labeled_region, _GAP_SIGMA_X)
        if n_gap:
            x_gap, y_gap = _gap_cluster(rng, n_gap)
            x_cov = np.concatenate([x_cov, x_gap])
            y_cov = np.concatenate([y_cov, y_gap])
        blocks.append(x_cov)
        labels.append(y_cov)
    data = TabularDataset(np.concatenate(blocks), np.concatenate(labels), 2)
    n_initial = 2 * n_labeled_region
    n_pool = 2 * n_labeled_region + n_gap_region
    initial = np.arange(n_initial)
    pool = np.arange(n_initial, n_initial + n_pool)
    test = np.arange(n_initial + n_pool, data.n)
    return data, (initial, pool, test)


# ---------------------------------------------------------------------------
# Acquisition and the round loop.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AcquisitionStrategy:
    """A top-batch uncertainty rule and component, or, with neither, uniform random acquisition."""

    rule: ScoringRule | None = None
    component: str | None = None

    def __post_init__(self):
        if (self.rule is None) != (self.component is None):
            raise BadConfig("uncertainty acquisition needs a rule and a component; random takes neither")
        if self.component is not None:
            check_component(self.component)

    @classmethod
    def random(cls) -> "AcquisitionStrategy":
        return cls()

    @classmethod
    def uncertainty(cls, rule: ScoringRule, component: str = "epistemic") -> "AcquisitionStrategy":
        return cls(rule, component)

    @classmethod
    def parse(cls, text: str) -> "AcquisitionStrategy":
        """Parse "random" or "<rule>:<component>" (component defaults to epistemic)."""
        if text == "random":
            return cls.random()
        rule_name, _, component = text.partition(":")
        try:
            rule = ScoringRule(rule_name)
        except ValueError:
            raise BadConfig(f"unknown acquisition strategy {text!r}") from None
        return cls.uncertainty(rule, component or "epistemic")

    @property
    def label(self) -> str:
        if self.rule is None:
            return "random"
        return f"{self.rule}-{self.component}"


def acquire(pool: Beliefs, strategy: AcquisitionStrategy, batch: int, rng: np.random.Generator) -> np.ndarray:
    """Indices (into the pool) to label next, sorted ascending.

    Uncertainty strategies score the ``Beliefs`` from :func:`predict_pool` (or ``Beliefs.of``) as they are, in leaf
    space, and pick the ``batch`` largest component values, ties to the smallest index.  Random acquisition reads only
    ``len(pool)``, so any sequence of n pool points will do, and draws uniformly without replacement from ``rng``.
    """
    n = len(pool)
    if batch < 0:
        raise BadConfig("batch must be >= 0")
    if batch > n:
        raise BadConfig(f"batch {batch} exceeds pool size {n}")
    if strategy.rule is None:
        chosen = rng.choice(n, size=batch, replace=False)
        return np.sort(chosen)
    values = _component_scores(strategy.rule, [pool], strategy.component)
    order = np.lexsort((np.arange(n), -values))
    return np.sort(order[:batch])


@dataclass(frozen=True)
class ActiveLearningTrace:
    """Labeled-set sizes and test losses, one entry per round (round 0 first)."""

    labeled_counts: np.ndarray
    test_losses: np.ndarray

    def __post_init__(self):
        counts = np.array(self.labeled_counts, dtype=np.intp)  # copies
        losses = np.array(self.test_losses, dtype=np.float64)
        if counts.shape != losses.shape or counts.ndim != 1 or counts.size < 1:
            raise UqscoreError("trace needs matching 1-d count and loss arrays")
        if np.any(np.diff(counts) <= 0):
            raise UqscoreError("labeled counts must increase every round")
        if np.any((losses < 0) | (losses > 1)):
            raise UqscoreError("zero-one test losses must lie in [0, 1]")
        counts.setflags(write=False)
        losses.setflags(write=False)
        object.__setattr__(self, "labeled_counts", counts)
        object.__setattr__(self, "test_losses", losses)

    def rounds_to_reach(self, target: float) -> int | None:
        """First round index with test loss <= target, or None if never."""
        hits = np.nonzero(self.test_losses <= target)[0]
        return int(hits[0]) if hits.size else None


def run_active_learning(
    data: TabularDataset,
    split: tuple[np.ndarray, np.ndarray, np.ndarray],
    config: LearnerConfig,
    strategy: AcquisitionStrategy,
    rounds: int,
    batch: int,
    seed: int,
) -> ActiveLearningTrace:
    """Fit, evaluate, acquire, repeat; returns the test-loss trace.

    ``split`` is ``(initial, pool, test)`` as disjoint index arrays into
    ``data``.  Each round fits on the sorted labeled set with a seed
    derived from ``(seed, round)``, records the ensemble's zero-one loss
    on the test rows, and moves the acquired batch from pool to labeled;
    the trace therefore has ``rounds + 1`` entries.
    """
    initial, pool, test = (np.asarray(s, dtype=np.intp) for s in split)
    combined = np.concatenate([initial, pool, test])
    if np.unique(combined).size != combined.size:
        raise BadConfig("initial, pool, and test index sets must be disjoint")
    if combined.size and (combined.min() < 0 or combined.max() >= data.n):
        raise BadConfig("split indices out of range")
    if test.size == 0:
        raise BadConfig("need a non-empty test set")
    if rounds < 0:
        raise BadConfig("rounds must be >= 0")
    if rounds > 0 and batch < 1:
        raise BadConfig("need a positive batch size when acquiring")
    if rounds * batch > pool.size:
        raise BadConfig(f"{rounds} rounds of {batch} exceed the pool of {pool.size}")

    labeled = np.sort(initial)
    pool_left = np.sort(pool)
    counts = []
    losses = []
    for r in range(rounds + 1):
        learner = fit(config, data.subset(labeled), seed=[seed, r, 0])
        counts.append(labeled.size)
        losses.append(ensemble_zero_one_loss(learner, data.features[test], data.labels[test]))
        if r == rounds:
            break
        pool_x = data.features[pool_left]
        beliefs = pool_x if strategy.rule is None else predict_pool(learner, pool_x)
        picked = acquire(beliefs, strategy, batch, np.random.default_rng([seed, r, 1]))
        labeled = np.sort(np.concatenate([labeled, pool_left[picked]]))
        pool_left = np.delete(pool_left, picked)
    return ActiveLearningTrace(np.array(counts), np.array(losses))
