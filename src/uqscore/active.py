"""Pool-based active learning with a bagged decision-tree ensemble.

The learner is deliberately self-contained: depth-capped trees with
axis-aligned splits chosen by Gini impurity, each fit on a bootstrap
resample, with Laplace-smoothed class frequencies at the leaves.  The
per-tree leaf distributions of an input form its second-order sample, so
every uncertainty component from :mod:`uqscore.measures` is available as
an acquisition score.  Synthetic dataset generators provide a separable
baseline (`make_blobs`) and a benchmark whose unlabeled pool hides a
region the initial labels never cover (`make_epistemic_gap`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadConfig,
    BatchTooLarge,
    DimensionMismatch,
    EmptyTrain,
    SplitOverlap,
)
from .measures import COMPONENTS, ScoringRule, _build_beliefs, _check_triples, _decompose_arrays, check_component
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
        if not (self.alpha >= 0.0):
            raise BadConfig("alpha must be >= 0")


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "dist")

    def __init__(self, feature=None, threshold=None, left=None, right=None, dist=None):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.dist = dist


def _best_split(x: np.ndarray, onehot: np.ndarray, min_leaf: int):
    """Best (weighted-Gini, feature, threshold) or None.

    Ties go to the smallest feature index, then the smallest threshold;
    thresholds are midpoints between consecutive distinct values, nudged
    back onto the lower value when the midpoint rounds up to the higher
    one so that the train-time partition matches the ``x <= t`` predicate.
    """
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


def _grow(x: np.ndarray, y0: np.ndarray, k: int, depth: int, cfg: LearnerConfig) -> _Node:
    n = y0.shape[0]
    counts = np.bincount(y0, minlength=k)
    if depth >= cfg.depth_cap or counts.max() == n or n < 2 * cfg.min_leaf:
        return _Node(dist=(counts + cfg.alpha) / (n + k * cfg.alpha))
    best = _best_split(x, np.eye(k)[y0], cfg.min_leaf)
    if best is None:
        return _Node(dist=(counts + cfg.alpha) / (n + k * cfg.alpha))
    _, f, thr = best
    mask = x[:, f] <= thr
    node = _Node(feature=f, threshold=thr)
    node.left = _grow(x[mask], y0[mask], k, depth + 1, cfg)
    node.right = _grow(x[~mask], y0[~mask], k, depth + 1, cfg)
    return node


def _tree_predict(root: _Node, x: np.ndarray, out: np.ndarray) -> None:
    """Write the leaf distribution for every row of ``x`` into the (n, K) ``out``."""
    stack = [(root, np.arange(x.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if node.feature is None:
            out[idx] = node.dist
            continue
        mask = x[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))


@dataclass(frozen=True)
class EnsembleLearner:
    """A fitted bag of trees; prediction is deterministic given the model."""

    trees: tuple
    config: LearnerConfig
    k: int
    d: int
    seed: object = None

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def fit(config: LearnerConfig, train: TabularDataset, seed) -> EnsembleLearner:
    """Fit the ensemble: one tree per bootstrap resample of ``train``.

    Per-tree sampling streams are spawned from ``seed`` in tree order, so
    refitting with the same configuration, data, and seed reproduces the
    model exactly.
    """
    if train.n == 0:
        raise EmptyTrain("cannot fit on an empty training set")
    root = np.random.SeedSequence(seed)
    children = root.spawn(config.n_trees)
    y0 = train.labels - 1
    trees = []
    for child in children:
        rng = np.random.default_rng(child)
        idx = rng.integers(0, train.n, size=train.n)
        trees.append(_grow(train.features[idx], y0[idx], train.k, 0, config))
    return EnsembleLearner(tuple(trees), config, train.k, train.d, seed)


def _member_stack(learner: EnsembleLearner, x: np.ndarray) -> np.ndarray:
    """All member predictions for a batch: a point-major (n, M, K) array, so a reduction
    over one input's members adds in the same order as for one ``SecondOrderSample``."""
    if x.ndim != 2 or x.shape[1] != learner.d:
        raise DimensionMismatch(f"inputs must be (n, {learner.d})")
    out = np.empty((x.shape[0], learner.n_trees, learner.k), dtype=np.float64)
    for j, tree in enumerate(learner.trees):
        _tree_predict(tree, x, out[:, j, :])
    return out


def predict_pool(learner: EnsembleLearner, x: np.ndarray) -> np.ndarray:
    """Per-tree leaf distributions of every row of ``x``: a read-only (n, M, K) array.

    Row i is the belief about input i, members in tree order, checked and
    clipped exactly as ``SecondOrderSample(row).matrix`` would be.
    """
    pool = _member_stack(learner, np.asarray(x, dtype=np.float64))
    _build_beliefs(pool)
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
    diffs = centers[:, None, :] - centers[None, :, :]
    dist = np.sqrt(np.square(diffs).sum(axis=2))
    min_dist = dist[~np.eye(k, dtype=bool)].min()
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
) -> tuple[np.ndarray, np.ndarray, TabularDataset]:
    """Two-class data whose pool hides a distant uncovered cluster.

    Returns ``(initial, pool, data)``: the initial labeled indices cover
    only the two near clusters; the pool holds a further covered draw plus
    ``n_gap_region`` points from the far cluster; the remaining rows (one
    covered draw per class plus ``n_labeled_region`` gap points, so the
    gap carries real test weight) are left for evaluation.  Ensemble
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
    return initial, pool, data


# ---------------------------------------------------------------------------
# Acquisition and the round loop.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AcquisitionStrategy:
    """Either uniform random acquisition or a top-batch uncertainty rule."""

    kind: str
    rule: ScoringRule | None = None
    component: str | None = None

    def __post_init__(self):
        if self.kind == "random":
            if self.rule is not None or self.component is not None:
                raise BadConfig("random acquisition takes no rule or component")
        elif self.kind == "uncertainty":
            if self.rule is None or self.component is None:
                raise BadConfig("uncertainty acquisition needs a rule and a component")
            check_component(self.component)
        else:
            raise BadConfig(f"unknown acquisition kind {self.kind!r}")

    @classmethod
    def random(cls) -> "AcquisitionStrategy":
        return cls("random")

    @classmethod
    def uncertainty(cls, rule: ScoringRule, component: str = "epistemic") -> "AcquisitionStrategy":
        return cls("uncertainty", rule, component)

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
        if self.kind == "random":
            return "random"
        return f"{self.rule}-{self.component}"


def acquire(
    pool: np.ndarray,
    strategy: AcquisitionStrategy,
    batch: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Indices (into the pool) to label next, sorted ascending.

    ``pool`` is the (n, M, K) array from :func:`predict_pool`.  Uncertainty
    strategies take the ``batch`` largest component values with ties
    resolved toward the smallest index; random draws uniformly without
    replacement from ``rng``.
    """
    n = len(pool)
    if batch < 0:
        raise BatchTooLarge("batch must be >= 0")
    if batch > n:
        raise BatchTooLarge(f"batch {batch} exceeds pool size {n}")
    if strategy.kind == "random":
        chosen = rng.choice(n, size=batch, replace=False)
        return np.sort(chosen)
    triple = _decompose_arrays(strategy.rule, pool, pool.mean(axis=-2))
    _check_triples(*triple)
    values = triple[COMPONENTS.index(strategy.component)]
    order = np.lexsort((np.arange(n), -values))
    return np.sort(order[:batch])


@dataclass(frozen=True)
class ActiveLearningTrace:
    """Labeled-set sizes and test losses, one entry per round (round 0 first)."""

    labeled_counts: np.ndarray
    test_losses: np.ndarray
    strategy: AcquisitionStrategy
    seed: int

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

    @property
    def n_rounds(self) -> int:
        return self.labeled_counts.shape[0] - 1

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
        picked = acquire(predict_pool(learner, data.features[pool_left]), strategy, batch, np.random.default_rng([seed, r, 1]))
        labeled = np.sort(np.concatenate([labeled, pool_left[picked]]))
        pool_left = np.delete(pool_left, picked)
    return ActiveLearningTrace(np.array(counts), np.array(losses), strategy, seed)
