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
first, and read by descending every (input, tree) pair one level per step
(see :class:`EnsembleLearner`); its per-tree node objects are derived views.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadConfig,
    BatchTooLarge,
    DimensionMismatch,
    EmptyTrain,
    SplitOverlap,
)
from .measures import COMPONENTS, ScoringRule, check_component
from .measures import _build_beliefs, _check_simplex_rows, _check_triples, _decompose_arrays
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
    """Feature matrix plus 1-based class labels."""

    features: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self):
        x = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.intp)
        if x.ndim != 2 or x.shape[1] < 1:
            raise BadConfig("features must be an (n, d) matrix with d >= 1")
        if not np.isfinite(x).all():
            raise BadConfig("features must be finite")
        if y.shape != (x.shape[0],):
            raise BadConfig("labels must be one class index per feature row")
        if self.k < 2:
            raise BadConfig("need at least two classes")
        if y.size and (y.min() < 1 or y.max() > self.k):
            raise BadConfig(f"labels must lie in 1..{self.k}")
        x = x.copy()
        y = y.copy()
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
    one sorted pass per feature over the rows of every open node scores
    every split by weighted Gini impurity.  Within a node the cheapest
    threshold wins, ties going to the smallest threshold, then to the
    smallest feature index.  Thresholds are midpoints between consecutive
    distinct values, nudged back onto the lower value when the midpoint
    rounds up to the higher one, so the train-time partition matches the
    ``x <= t`` predicate.
    """
    if train.n == 0:
        raise EmptyTrain("cannot fit on an empty training set")
    n, k, m, min_leaf = train.n, train.k, config.n_trees, config.min_leaf
    try:  # allocate first: spawning one stream per tree for a huge m would run on with no error
        boot = np.empty((m, n), dtype=np.int64)
    except (MemoryError, ValueError) as exc:
        raise BadConfig(f"{m} trees of {n} bootstrap rows do not fit in memory") from exc
    for row, child in zip(boot, np.random.SeedSequence(seed).spawn(m)):
        row[:] = np.random.default_rng(child).integers(0, n, size=n)
    boot = boot.ravel()
    x = train.features[boot]  # tree-major bootstrap rows
    y = train.labels[boot] - 1
    onehot = np.eye(k)[y]
    # per-feature rank of every row, ties in row order: sorting rows by
    # (node, rank) sorts each node's rows stably by value
    rank = np.argsort(np.argsort(x, axis=0, kind="stable"), axis=0, kind="stable")
    rows = np.arange(m * n)  # rows of the open nodes, in no particular order
    seg = np.repeat(np.arange(m), n)  # open-node index of each row
    s, first_id, levels = m, 0, []
    while True:
        counts = np.bincount(seg * k + y[rows], minlength=s * k).reshape(s, k)
        size = np.bincount(seg, minlength=s)
        left = first_id + np.arange(s)
        feature, threshold, right = np.full(s, -1), np.full(s, np.nan), left.copy()
        levels.append((feature, threshold, left, right, (counts + config.alpha) / (size + k * config.alpha)[:, None]))
        first_id += s
        open_ = (counts.max(axis=1) < size) & (size >= 2 * min_leaf)
        if len(levels) > config.depth_cap or not open_.any():
            break
        keep = open_[seg]
        r, sg = rows[keep], (np.cumsum(open_) - 1)[seg[keep]]
        cnt = size[open_]
        st = np.cumsum(cnt) - cnt
        last = st + cnt - 1
        pos = np.delete(np.arange(r.size), last)  # split after pos: each node's rows but its last
        psg = np.repeat(np.arange(cnt.size), cnt - 1)
        left_n = (pos - st[psg] + 1).astype(np.float64)
        right_n = cnt[psg] - left_n
        first = st - np.arange(cnt.size)  # each node's first position
        best_cost = np.full(cnt.size, np.inf)
        best_f = np.full(cnt.size, -1)
        best_thr = np.zeros(cnt.size)
        for f in range(train.d):
            rs = r[np.argsort(sg * x.shape[0] + rank[r, f])]
            sv = x[rs, f]
            cum = np.cumsum(onehot[rs], axis=0)  # exact integer counts
            before = cum[st - 1]  # counts before each node's first row
            before[0] = 0.0
            cl = cum[pos] - before[psg]
            cr = (cum[last] - before)[psg] - cl
            gini_l = 1.0 - np.square(cl / left_n[:, None]).sum(axis=1)
            gini_r = 1.0 - np.square(cr / right_n[:, None]).sum(axis=1)
            cost = (left_n * gini_l + right_n * gini_r) / cnt[psg]
            valid = (sv[pos] < sv[pos + 1]) & (left_n >= min_leaf) & (right_n >= min_leaf)
            cost = np.where(valid, cost, np.inf)
            low = np.minimum.reduceat(cost, first)
            i = pos[np.minimum.reduceat(np.where(cost == low[psg], np.arange(pos.size), pos.size), first)]
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
        seg = 2 * (np.cumsum(split) - 1)[sg] + ~(x[rows, best_f[sg]] <= best_thr[sg])
        s = 2 * node.size
    feature, threshold, left, right, leaf = (np.concatenate(parts) for parts in zip(*levels))
    _check_simplex_rows(leaf)  # once per fit: predict_pool only gathers copies of these rows
    return EnsembleLearner(feature, threshold, left, right, leaf, len(levels) - 1, config, train.d)


def _member_stack(learner: EnsembleLearner, x: np.ndarray) -> np.ndarray:
    """All member predictions for a batch: a point-major (n, M, K) array, so a reduction
    over one input's members adds in the same order as for one ``SecondOrderSample``.

    Every (input, tree) pair descends one level per step, all at once; a
    leaf routes to itself (its feature -1 reads an arbitrary column).
    """
    if x.ndim != 2 or x.shape[1] != learner.d:
        raise DimensionMismatch(f"inputs must be (n, {learner.d})")
    node = np.broadcast_to(np.arange(learner.n_trees), (x.shape[0], learner.n_trees))
    point = np.arange(x.shape[0])[:, None]
    for _ in range(learner.depth):
        go_left = x[point, learner.feature[node]] <= learner.threshold[node]
        node = np.where(go_left, learner.left[node], learner.right[node])
    return learner.leaf[node]


def predict_pool(learner: EnsembleLearner, x: np.ndarray) -> np.ndarray:
    """Per-tree leaf distributions of every row of ``x``: a read-only (n, M, K) array.

    Row i is the belief about input i, members in tree order: copies of
    leaf rows :func:`fit` checked, clipped as ``SecondOrderSample(row)`` would.
    """
    pool = _member_stack(learner, np.asarray(x, dtype=np.float64))
    _build_beliefs(pool, check_members=False)
    return pool


def ensemble_zero_one_loss(learner: EnsembleLearner, x: np.ndarray, labels: np.ndarray) -> float:
    """Mean argmax-mismatch of the averaged prediction (1-based labels)."""
    stack = _member_stack(learner, np.asarray(x, dtype=np.float64))
    predicted = np.argmax(stack.mean(axis=1), axis=1) + 1
    return float(np.mean(predicted != np.asarray(labels)))


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


def _pool_scores(pool: np.ndarray, rule: ScoringRule, component: str) -> np.ndarray:
    """One component of every belief of a :func:`predict_pool` array, per-row ``decompose`` bit for bit."""
    triple = _decompose_arrays(rule, pool, pool.mean(axis=-2))  # point-major: each mean adds as a sample's would
    _check_triples(*triple)
    return triple[COMPONENTS.index(component)]


def acquire(
    pool: np.ndarray,
    strategy: AcquisitionStrategy,
    batch: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Indices (into the pool) to label next, sorted ascending.

    Uncertainty strategies take the (n, M, K) array from :func:`predict_pool`
    and pick the ``batch`` largest component values, ties resolved toward
    the smallest index.  Random acquisition reads only ``len(pool)``, so
    any sequence of the n pool points will do; it draws uniformly without
    replacement from ``rng``.
    """
    n = len(pool)
    if batch < 0:
        raise BatchTooLarge("batch must be >= 0")
    if batch > n:
        raise BatchTooLarge(f"batch {batch} exceeds pool size {n}")
    if strategy.rule is None:
        chosen = rng.choice(n, size=batch, replace=False)
        return np.sort(chosen)
    values = _pool_scores(pool, strategy.rule, strategy.component)
    order = np.lexsort((np.arange(n), -values))
    return np.sort(order[:batch])


@dataclass(frozen=True)
class ActiveLearningTrace:
    """Labeled-set sizes and test losses, one entry per round (round 0 first)."""

    labeled_counts: np.ndarray
    test_losses: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.labeled_counts, dtype=np.intp)
        losses = np.asarray(self.test_losses, dtype=np.float64)
        if counts.shape != losses.shape or counts.ndim != 1 or counts.size < 1:
            raise ValueError("trace needs matching 1-d count and loss arrays")
        if np.any(np.diff(counts) <= 0):
            raise ValueError("labeled counts must increase every round")
        if np.any((losses < 0) | (losses > 1)):
            raise ValueError("zero-one test losses must lie in [0, 1]")
        counts = counts.copy()
        losses = losses.copy()
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
        raise SplitOverlap("initial, pool, and test index sets must be disjoint")
    if combined.size and (combined.min() < 0 or combined.max() >= data.n):
        raise BadConfig("split indices out of range")
    if test.size == 0:
        raise BadConfig("need a non-empty test set")
    if rounds < 0:
        raise BadConfig("rounds must be >= 0")
    if rounds > 0 and batch < 1:
        raise BadConfig("need a positive batch size when acquiring")
    if rounds * batch > pool.size:
        raise BatchTooLarge(f"{rounds} rounds of {batch} exceed the pool of {pool.size}")

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
