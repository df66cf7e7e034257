"""Scoring rules and loss-based uncertainty decomposition.

A belief about class probabilities is represented by a finite set of M
categorical distributions (one per ensemble member or posterior sample).
Every scoring rule splits its expected loss into an entropy term and a
divergence term, and that split carries over to the belief:

* total uncertainty is the entropy of the member mean,
* aleatoric uncertainty is the average member entropy,
* epistemic uncertainty is the average divergence of the mean from the
  members.

``decompose`` evaluates the per-rule closed forms; ``generic_triple``
evaluates the same quantities from nothing but the pointwise losses and
finite label sums, and serves as the independent oracle for the closed
forms.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BadConfig, InconsistentDecomposition, LabelOutOfRange, SimplexError, UqscoreError

__all__ = [
    "SIMPLEX_TOLERANCE",
    "COMPONENTS",
    "ScoringRule",
    "Beliefs",
    "SecondOrderSample",
    "UncertaintyTriple",
    "validate_simplex",
    "loss",
    "expected_loss",
    "entropy",
    "divergence",
    "decompose",
    "generic_triple",
]

#: Allowed deviation of sum(probs) from 1.
SIMPLEX_TOLERANCE = 1e-9

#: Names of the three uncertainty components.
COMPONENTS = ("total", "aleatoric", "epistemic")


class ScoringRule(Enum):
    """The four supported scoring rules (negatively oriented losses)."""

    LOG = "log"
    BRIER = "brier"
    ZERO_ONE = "zero-one"
    SPHERICAL = "spherical"

    @property
    def strictly_proper(self) -> bool:
        """Whether the expected loss is minimized only at the true distribution."""
        return self is not ScoringRule.ZERO_ONE

    def __str__(self) -> str:  # used in CLI output and file names
        return self.value


def check_component(component: str) -> str:
    """Validate an uncertainty component name, returning it unchanged."""
    if component not in COMPONENTS:
        raise BadConfig(f"unknown uncertainty component {component!r}; expected one of {COMPONENTS}")
    return component


def _check_simplex_rows(rows: np.ndarray) -> None:
    """Raise unless every row of ``rows`` is a valid simplex point."""
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise SimplexError("expected a non-empty probability vector")
    if rows.shape[1] < 2:
        raise SimplexError("a categorical distribution needs at least two classes")
    low, high = float(rows.min(initial=0.0)), float(rows.max(initial=1.0))  # a NaN propagates; no rows pass
    if not (math.isfinite(low) and math.isfinite(high)):
        raise SimplexError("probabilities must be finite")
    if low < -1e-12:
        raise SimplexError(f"negative entry {low!r}")
    if high > 1.0 + SIMPLEX_TOLERANCE:
        raise SimplexError(f"entry {high!r} exceeds 1")
    sums = rows.sum(axis=1)
    bad = np.abs(sums - 1.0) > SIMPLEX_TOLERANCE
    if bad.any():
        raise SimplexError(f"entries sum to {float(sums[bad][0])!r}, not 1")


def _build_beliefs(members: np.ndarray) -> np.ndarray:
    """Check, clip, average and freeze (..., M, K) member rows in place; returns their checked (..., K) means.

    The body of :meth:`Beliefs.of`.
    """
    k = members.shape[-1]
    _check_simplex_rows(members.reshape(math.prod(members.shape[:-1]), k))
    np.clip(members, 0.0, 1.0, out=members)  # float-noise entries within tolerance
    means = members.mean(axis=-2)
    # Subnormal member entries can average to exactly zero; drop such
    # dust so a zero mean entry always implies all-zero member entries
    # (which keeps every divergence finite).
    if (means == 0.0).any():  # rarely true, and the dust search reads every member entry
        underflow = (means == 0.0) & (members > 0.0).any(axis=-2)
        np.copyto(members, 0.0, where=underflow[..., None, :])
    _check_simplex_rows(means.reshape(-1, k))
    members.setflags(write=False)
    means.setflags(write=False)
    return means


def _prepare_rows(rows: np.ndarray, renormalize: bool) -> np.ndarray:
    """Reject non-finite (N, K) rows; with ``renormalize``, clamp negatives and divide each row by its sum.

    The simplex check itself is left to the caller.
    """
    if not np.all(np.isfinite(rows)):
        raise SimplexError("probabilities must be finite")
    if not renormalize:
        return rows
    rows = np.clip(rows, 0.0, None)
    totals = rows.sum(axis=1)
    empty = totals <= 0.0
    if np.any(empty):
        raise SimplexError(f"entries sum to {float(totals[empty][0])!r}; cannot renormalize")
    return rows / totals[:, None]


def validate_simplex(raw, renormalize: bool = False) -> np.ndarray:
    """The checked, clipped, read-only float64 copy of a raw probability vector, or of (..., K) rows of them.

    With ``renormalize=False`` each row must already satisfy the simplex
    constraints up to :data:`SIMPLEX_TOLERANCE`.  With ``renormalize=True``
    entries are clamped to be nonnegative and divided by their row's sum, which
    is the intended ingestion path for 32-bit predictions read from files.
    Entries within tolerance of [0, 1] are clipped into it.

    Raises :class:`SimplexError` for a non-finite entry, for a negative entry,
    an entry above one or a sum off one in strict mode, and, with
    ``renormalize=True``, for clamped entries that sum to zero.
    """
    arr = np.array(raw, dtype=np.float64, ndmin=1)  # a copy
    if arr.size == 0:
        raise SimplexError("expected a non-empty probability vector")
    rows = _prepare_rows(arr.reshape(-1, arr.shape[-1]), renormalize)
    _check_simplex_rows(rows)
    arr = np.clip(rows, 0.0, 1.0, out=rows).reshape(arr.shape)  # float-noise entries within tolerance
    arr.setflags(write=False)
    return arr


class Beliefs:
    """Finite beliefs about ``len()`` inputs, each M member distributions over the same K classes.

    ``members`` is the C-contiguous float64 (n, M, K) member array and ``means`` its checked (n, K) means; member j
    of belief i is row ``leaf_ids[i, j]`` of the (L, K) table ``leaves`` bit for bit (a fitted learner's leaf table,
    or each member its own row).  All are read-only.  ``beliefs[i]`` and iteration give belief i as a
    :class:`SecondOrderSample` view, each member its own row.
    """

    __slots__ = ("members", "means", "leaf_ids", "leaves")

    def __init__(self, members: np.ndarray, means: np.ndarray, leaf_ids: np.ndarray, leaves: np.ndarray):
        for array in (members, means, leaf_ids, leaves):
            array.setflags(write=False)
        self.members, self.means, self.leaf_ids, self.leaves = members, means, leaf_ids, leaves

    @staticmethod
    def of(members, renormalize: bool = False) -> "Beliefs":
        """The one checked build of (n, M, K) member rows, each member its own table row.

        The rows are copied, renormalized as :func:`validate_simplex` does when asked, checked, clipped and averaged.
        """
        members = np.array(members, dtype=np.float64)  # a copy
        if members.ndim != 3 or members.shape[1] < 1:
            raise SimplexError("expected an (n, M, K) array of member distributions with M >= 1")
        if renormalize:
            members = _prepare_rows(members.reshape(-1, members.shape[2]), True).reshape(members.shape)
        return _own_rows(members, _build_beliefs(members))

    def __len__(self) -> int:
        return self.members.shape[0]

    @property
    def m(self) -> int:
        return self.members.shape[1]

    @property
    def k(self) -> int:
        return self.members.shape[2]

    def __getitem__(self, i: int) -> "SecondOrderSample":
        i = range(len(self))[i]  # an IndexError past the end
        return next(iter(_own_rows(self.members[i : i + 1], self.means[i : i + 1])))

    def __iter__(self):
        """Each belief as a :class:`SecondOrderSample` view, each member its own row; the views share one id row."""
        ids = np.arange(self.m)[None, :]
        ids.setflags(write=False)
        for members, means, matrix in zip(self.members[:, None], self.means[:, None], self.members):
            view = object.__new__(SecondOrderSample)
            view.members, view.means, view.leaf_ids, view.leaves = members, means, ids, matrix
            yield view


def _own_rows(members: np.ndarray, means: np.ndarray) -> Beliefs:
    """Beliefs of checked (n, M, K) members and their means, each member its own table row."""
    n, m, k = members.shape
    return Beliefs(members, means, np.arange(n * m).reshape(n, m), members.reshape(n * m, k))


class SecondOrderSample(Beliefs):
    """One finite belief, a :class:`Beliefs` of one: M member distributions plus their cached mean.

    ``matrix`` holds the members as the rows of an (M, K) read-only float64 array, each its own table row.  The mean
    is their component-wise average (the model average used for point prediction); a mean entry of zero forces every
    member to be zero there, which keeps all divergence terms finite.
    """

    __slots__ = ()

    def __init__(self, matrix: np.ndarray):
        arr = np.asarray(matrix, dtype=np.float64)
        if arr.ndim != 2:
            raise SimplexError("expected an (M, K) matrix of member distributions")
        if arr.shape[0] < 1:
            raise SimplexError("a second-order sample needs at least one member")
        built = Beliefs.of(arr[None])
        super().__init__(built.members, built.means, built.leaf_ids, built.leaves)

    @property
    def matrix(self) -> np.ndarray:
        return self.leaves

    @property
    def mean(self) -> np.ndarray:
        """The checked read-only (K,) mean row, not copied."""
        return self.means[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SecondOrderSample):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __repr__(self) -> str:
        return f"SecondOrderSample(M={self.m}, K={self.k})"


#: Most values stacked into one chunk by the batched paths, which bounds their copies.
_CHUNK_VALUES = 1 << 15


def _shape_chunks(shapes: Sequence[tuple]) -> list[list[int]]:
    """Indices of the items of each shape, in chunks of at most :data:`_CHUNK_VALUES` values or one item."""
    groups: dict[tuple, list[int]] = {}
    for i, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(i)
    chunks = []
    for shape, items in groups.items():
        step = max(1, _CHUNK_VALUES // max(1, math.prod(shape)))  # a K = 0 shape fails its simplex check later
        chunks += [items[j : j + step] for j in range(0, len(items), step)]
    return chunks


def _build_samples(matrices: Sequence[np.ndarray], renormalize: bool) -> list[SecondOrderSample]:
    """Samples of float64 (M, K) arrays, in order: the views of one :meth:`Beliefs.of` (a copy) per (M, K) chunk."""
    samples = [None] * len(matrices)
    for chunk in _shape_chunks([matrix.shape for matrix in matrices]):
        for i, sample in zip(chunk, Beliefs.of([matrices[i] for i in chunk], renormalize)):
            samples[i] = sample
    return samples


class UncertaintyTriple(NamedTuple):
    """Total, aleatoric and epistemic uncertainty under one scoring rule, fields named as :data:`COMPONENTS`.

    :func:`decompose` gives (n,) arrays, one entry per belief, and :func:`generic_triple` floats.  Both check that
    total = aleatoric + epistemic within 1e-9 (extended-real aware) and epistemic >= -1e-12 by properness.
    """

    total: np.ndarray
    aleatoric: np.ndarray
    epistemic: np.ndarray


def _check_triples(total, aleatoric, epistemic) -> None:
    """Raise :class:`InconsistentDecomposition` at the first triple (arrays or floats) not additive or not proper."""
    with np.errstate(invalid="ignore"):  # inf - inf
        ok = (abs(total - aleatoric - epistemic) <= 1e-9) & (epistemic >= -1e-12)
        ok &= (total >= -1e-12) & (aleatoric >= -1e-12)
    if np.all(ok):
        return
    # only infinities, NaNs and faults get here; walk them in order with the scalar rules
    for i in np.flatnonzero(~np.asarray(ok)):
        t, a, e = (float(np.ravel(x)[i]) for x in (total, aleatoric, epistemic))
        if math.isinf(t) or math.isinf(a) or math.isinf(e):
            # extended-real additivity: an infinity must appear on both sides
            if math.isinf(t) != (math.isinf(a) or math.isinf(e)):
                raise InconsistentDecomposition(f"decomposition not additive: {t!r} != {a!r} + {e!r}")
        elif abs(t - a - e) > 1e-9:
            raise InconsistentDecomposition(f"decomposition not additive: {t!r} != {a!r} + {e!r}")
        if e < -1e-12:
            raise InconsistentDecomposition(f"negative epistemic uncertainty {e!r} violates properness")
        if t < -1e-12 or a < -1e-12:
            raise InconsistentDecomposition("uncertainty components must be nonnegative")


# ---------------------------------------------------------------------------
# Closed-form kernels.
#
# Each kernel reduces over the class axis of arrays of any shape: the last,
# or the log, Brier and spherical divergences' ``axis``, which
# ``_decompose_arrays`` sets to 0 for pool members it reads class-major;
# ``_decompose_arrays``, ``entropy`` and ``divergence`` all dispatch through
# these dictionaries, so a single corrupted entry is caught by the
# verification suites.
#
# The log forms import scipy.special where they run, not at module level: the
# import takes about a quarter of a second, which a process that never scores
# the log rule (a command under another rule, ``--help``, a refused file)
# need not pay.
# ---------------------------------------------------------------------------


def _entropy_log(t: np.ndarray) -> np.ndarray:
    from scipy.special import xlogy

    return -xlogy(t, t).sum(axis=-1)


def _entropy_brier(t: np.ndarray) -> np.ndarray:
    return 1.0 - np.square(t).sum(axis=-1)


def _entropy_zero_one(t: np.ndarray) -> np.ndarray:
    return 1.0 - t.max(axis=-1)


def _entropy_spherical(t: np.ndarray) -> np.ndarray:
    return 1.0 - np.linalg.norm(t, axis=-1)


def _divergence_log(p: np.ndarray, t: np.ndarray, axis: int = -1) -> np.ndarray:
    # rel_entr(t, p) = t * log(t / p), with 0 * log(0 / p) = 0 and +inf when
    # t > 0 = p: exactly the extended-real KL convention used throughout.
    from scipy.special import rel_entr

    return rel_entr(t, p).sum(axis=axis)


def _divergence_brier(p: np.ndarray, t: np.ndarray, axis: int = -1) -> np.ndarray:
    diff = p - t
    return np.square(diff, out=diff).sum(axis=axis)  # in place: one pool-sized temporary, not two


def _divergence_zero_one(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    at_argmax = np.take_along_axis(t, np.argmax(p, axis=-1)[..., None], axis=-1)[..., 0]  # t at p's argmax
    return t.max(axis=-1) - at_argmax


def _divergence_spherical(p: np.ndarray, t: np.ndarray, axis: int = -1) -> np.ndarray:
    return np.linalg.norm(t, axis=axis) - (p * t).sum(axis=axis) / np.linalg.norm(p, axis=axis)


_ENTROPY_KERNELS = {
    ScoringRule.LOG: _entropy_log,
    ScoringRule.BRIER: _entropy_brier,
    ScoringRule.ZERO_ONE: _entropy_zero_one,
    ScoringRule.SPHERICAL: _entropy_spherical,
}

_DIVERGENCE_KERNELS = {
    ScoringRule.LOG: _divergence_log,
    ScoringRule.BRIER: _divergence_brier,
    ScoringRule.ZERO_ONE: _divergence_zero_one,
    ScoringRule.SPHERICAL: _divergence_spherical,
}


# ---------------------------------------------------------------------------
# Pointwise losses and the expectation-form oracle.
# ---------------------------------------------------------------------------


def _check_labels(labels, k: int) -> np.ndarray:
    """The one label rule: 1-based labels, one label, an array or an iterable, as an intp array; checked in order.

    Integer dtypes and ints of any size pass (object arrays hold ints past 64 bits); bools, floats,
    strings, ``None`` and sequences do not, and each label lies in 1..k.  An array keeps its shape, one
    label gives a 0-d array and an iterable a 1-d one.
    """
    if isinstance(labels, np.ndarray) and labels.dtype.kind in "iu" and ((labels >= 1) & (labels <= k)).all():
        return labels.astype(np.intp)  # the common case, without a walk
    if isinstance(labels, str) or not hasattr(labels, "__iter__"):
        return np.array(_check_label(labels, k), dtype=np.intp)
    items = labels.ravel().tolist() if isinstance(labels, np.ndarray) else labels
    return np.array([_check_label(y, k) for y in items], dtype=np.intp).reshape(getattr(labels, "shape", -1))


def _check_label(y, k: int) -> int:
    """The one label rule for a single label, returned as an int (see :func:`_check_labels`)."""
    if not isinstance(y, (int, np.integer)) or isinstance(y, bool):
        raise LabelOutOfRange(f"label {y!r} is not an integer")
    if not 1 <= y <= k:
        raise LabelOutOfRange(f"label {y} not in 1..{k}")
    return int(y)


def loss(rule: ScoringRule, probs, labels) -> np.ndarray:
    """Pointwise loss of each (..., K) row of ``probs`` at its 1-based label in ``labels``: the one loss body.

    A (K,) row with one label gives a 0-d loss.  The rows are taken as checked (by :func:`validate_simplex`, or
    a belief's ``means``) and nothing is clamped, so the log loss is ``+inf`` where the label's probability is
    exactly zero.  Log is glibc's ``log``, as ``math.log`` is; spherical takes each row's norm from its own dot
    product, as ``np.linalg.norm`` of one row does; zero-one's argmax ties go to the smallest index.
    """
    probs = np.asarray(probs, dtype=np.float64)
    y = _check_labels(labels, probs.shape[-1])[..., None] - 1
    p_y = np.take_along_axis(probs, y, axis=-1)[..., 0]
    if rule is ScoringRule.LOG:
        from scipy.special import xlogy

        return -xlogy(1.0, p_y)
    if rule is ScoringRule.BRIER:
        diff = probs.copy()
        np.put_along_axis(diff, y, p_y[..., None] - 1.0, axis=-1)
        return np.square(diff, out=diff).sum(axis=-1)
    if rule is ScoringRule.ZERO_ONE:
        return (np.argmax(probs, axis=-1) != y[..., 0]).astype(np.float64)
    return 1.0 - p_y / np.sqrt((probs[..., None, :] @ probs[..., :, None])[..., 0, 0])


def _loss_table(rule: ScoringRule, rows: np.ndarray) -> np.ndarray:
    """Pointwise losses of each row against every label: (N, K) table.

    This evaluates the per-label loss definitions elementwise and is used by
    the expectation-form oracle; it never touches the closed-form kernels.
    """
    n, k = rows.shape
    if rule is ScoringRule.LOG:
        with np.errstate(divide="ignore"):
            return np.where(rows > 0.0, -np.log(np.where(rows > 0.0, rows, 1.0)), np.inf)
    if rule is ScoringRule.BRIER:
        return np.square(rows[:, None, :] - np.eye(k)[None, :, :]).sum(axis=2)
    if rule is ScoringRule.ZERO_ONE:
        am = np.argmax(rows, axis=1)
        return 1.0 - (am[:, None] == np.arange(k)[None, :]).astype(np.float64)
    return 1.0 - rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _checked_pair(prediction, truth) -> Sequence[np.ndarray]:
    """Both inputs through :func:`validate_simplex`, broadcast against each other; their class counts must agree."""
    prediction, truth = validate_simplex(prediction), validate_simplex(truth)
    if prediction.shape[-1] != truth.shape[-1]:
        raise UqscoreError(f"prediction has K={prediction.shape[-1]}, truth has K={truth.shape[-1]}")
    return np.broadcast_arrays(prediction, truth)


def expected_loss(rule: ScoringRule, prediction, truth) -> np.ndarray:
    """Expected pointwise loss of each (..., K) row of ``prediction`` under labels drawn from its row of ``truth``.

    Each row's K losses come from :func:`loss` in blocks of labels and are added in label order.  A
    zero-probability label contributes zero even when its loss is infinite (the 0 * inf := 0 convention
    that keeps entropies finite).
    """
    prediction, truth = _checked_pair(prediction, truth)
    lead, k = truth.shape[:-1], truth.shape[-1]
    step = max(1, _CHUNK_VALUES // truth.size)  # labels per loss call, which bounds its (..., labels, K) temporaries
    blocks = []
    for start in range(0, k, step):
        labels = np.arange(start + 1, min(start + step, k) + 1)
        rows = np.broadcast_to(prediction[..., None, :], (*lead, labels.size, k))
        blocks.append(loss(rule, rows, np.broadcast_to(labels, rows.shape[:-1])))
    with np.errstate(invalid="ignore"):  # 0 * inf, which the mask drops
        terms = np.where(truth != 0.0, truth * np.concatenate(blocks, axis=-1), 0.0)
    return np.cumsum(terms, axis=-1)[..., -1]  # a running sum, in label order


def entropy(rule: ScoringRule, probs) -> np.ndarray:
    """Generalized entropy of each (..., K) row of ``probs``: the expected loss of predicting the row against itself.

    Closed forms per rule: Shannon entropy (log), Gini impurity (Brier),
    one minus the maximum (zero-one), one minus the Euclidean norm
    (spherical).  Always finite and nonnegative.  The rows are checked and
    clipped by :func:`validate_simplex`.
    """
    return _ENTROPY_KERNELS[rule](validate_simplex(probs))


def divergence(rule: ScoringRule, prediction, truth) -> np.ndarray:
    """Excess expected loss of predicting each (..., K) row of ``prediction`` instead of its row of ``truth``.

    Nonnegative for every rule by properness.  Zero only at
    ``prediction == truth`` for the strictly proper rules; the zero-one
    divergence also vanishes whenever the two share an argmax.  Both are
    checked and clipped by :func:`validate_simplex`.
    """
    return _DIVERGENCE_KERNELS[rule](*_checked_pair(prediction, truth))


#: Fewest values numpy sums pairwise along an axis: it adds fewer one by one, so for K below this a class-major
#: (K, ...) sum over axis 0 has the bits of the point-major (..., K) sum over the last axis, and for K at or above not.
_PAIRWISE_MIN = 8

#: Fewest member values of a pool for which finding its distinct id rows saves time: timed in process, the crossover
#: lies between 6 000 and 96 000 by rule and learner; benchmark pools hold 3 150 (small ``active``) and 348 000.
_DISTINCT_MIN_VALUES = 1 << 15


def _row_keys(ids: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each (n, M) id row: the multiply-add sum of each id j times G**(j + 1), G odd, mod 2**64."""
    powers = np.cumprod(np.full(ids.shape[1], 0x9E3779B97F4A7C15, dtype=np.uint64))
    return np.einsum("nm,m->n", ids, powers.view(np.int64))  # int64 products and sums wrap as uint64 ones do


def _distinct_rows(ids: np.ndarray, leaves: np.ndarray) -> tuple:
    """``(first, inverse)`` with ``ids[first][inverse] == ids``, ``first`` each distinct id row's first index.

    Every row, ``np.s_[:]`` twice, unless the table has fewer rows than ``ids`` has members, as a pool's has, and
    more than :data:`_DISTINCT_MIN_VALUES` member values; also when two distinct rows share a hash key."""
    if len(leaves) < ids.size and ids.size * leaves.shape[1] > _DISTINCT_MIN_VALUES:
        _, first, inverse = np.unique(_row_keys(ids), return_index=True, return_inverse=True)
        if np.array_equal(np.take(ids, first, axis=0)[inverse], ids):
            return first, inverse
    return np.s_[:], np.s_[:]


def _decompose_arrays(rule: ScoringRule, beliefs: Beliefs):
    """Closed-form (total, aleatoric, epistemic) (n,) arrays of one :class:`Beliefs` batch.

    The one place the kernel tables are combined; callers run :func:`_check_triples`.  A member's own terms
    are taken once per row of the leaf table and gathered by its id; the divergences that mix it with the mean,
    once per distinct id row of a large pool (:func:`_distinct_rows`): equal id rows hold equal members and means.
    For a pool with K < :data:`_PAIRWISE_MIN` those divergences read the members class-major, (K, n, M) gathered
    from the table's columns, and sum the K class planes over axis 0, fast and in the point-major order; beliefs
    that are their own table (file chunks) stay point-major, as that gather would copy each of their members twice.
    """
    members, means, leaves, ids, m = beliefs.members, beliefs.means, beliefs.leaves, beliefs.leaf_ids, beliefs.m
    total = _ENTROPY_KERNELS[rule](means)
    if m == 1:
        # the mean is the sole member, so there is exactly nothing to gain
        return total, total.copy(), np.zeros_like(total)
    # each average over members is sum / M, np.mean's own arithmetic without its Python overhead
    aleatoric = np.take(_ENTROPY_KERNELS[rule](leaves), ids).sum(axis=-1) / m
    if rule is ScoringRule.ZERO_ONE:  # _divergence_zero_one's max and its t at p's argmax, both read by id
        at_argmax = np.take(leaves, ids * leaves.shape[1] + np.argmax(means, axis=-1)[..., None])
        epistemic = (np.take(leaves.max(axis=-1), ids) - at_argmax).sum(axis=-1) / m
    else:  # the other divergences mix the mean with the member, so they stay per pair, once per distinct belief
        first, inverse = _distinct_rows(ids, leaves)
        if beliefs.k < _PAIRWISE_MIN and len(leaves) < ids.size:  # a pool, whose table is small next to its members
            terms = _DIVERGENCE_KERNELS[rule](means[first].T[..., None], np.take(leaves.T, ids[first], axis=1), 0)
        else:  # 8+ classes sum pairwise along the last axis, which no class-major sum reproduces; own rows: no gather
            terms = _DIVERGENCE_KERNELS[rule](means[first][..., None, :], members[first])
        epistemic = (terms.sum(axis=-1) / m)[inverse]
    return total, aleatoric, epistemic


def decompose(rule: ScoringRule, beliefs: Beliefs) -> UncertaintyTriple:
    """Closed-form uncertainty decomposition of each finite belief, as (n,) arrays over the ``len(beliefs)`` rows.

    total = entropy of the member mean, aleatoric = average member entropy,
    epistemic = average divergence of the mean from the members.  A
    :class:`SecondOrderSample` gives (1,) arrays.  Each value has the bits that
    the file and pool commands compute for its belief.
    """
    triple = UncertaintyTriple(*_decompose_arrays(rule, beliefs))
    _check_triples(*triple)
    return triple


def _decompose_samples(rules: Sequence[ScoringRule], items: Sequence[Beliefs]) -> np.ndarray:
    """The closed-form decomposition of each of the items' N rows under each rule, as an (R, 3, N) array.

    Items of one (n, M, K) shape are stacked per chunk, each member its own row; an item alone in its chunk,
    such as a pool, is scored as it is.  Each row gets the bits it would get alone.  One kernel pass per chunk
    and rule, then one check, which raises at the first bad triple: belief by belief, then rule by rule.
    """
    shapes = [item.members.shape for item in items]
    starts = np.cumsum([0] + [shape[0] for shape in shapes])
    out = np.empty((len(rules), 3, starts[-1]))
    for chunk in _shape_chunks(shapes):
        beliefs = items[chunk[0]]
        if len(chunk) > 1:
            members = np.concatenate([items[i].members for i in chunk])
            beliefs = _own_rows(members, np.concatenate([items[i].means for i in chunk]))
        at = (starts[chunk][:, None] + np.arange(len(items[chunk[0]]))).ravel()  # the items of a chunk share their n
        for r, rule in enumerate(rules):
            out[r][:, at] = _decompose_arrays(rule, beliefs)
    _check_triples(*out.transpose(1, 2, 0).reshape(3, -1))
    return out


def _component_scores(rule: ScoringRule, items: Sequence[Beliefs], component: str) -> np.ndarray:
    """One component of every belief's :func:`decompose` under ``rule``, in row order, over one class count."""
    check_component(component)
    ks = {item.k for item in items}
    if len(ks) > 1:
        raise UqscoreError(f"samples disagree on class count: {sorted(ks)}")
    return _decompose_samples([rule], items)[0, COMPONENTS.index(component)]


def generic_triple(rule: ScoringRule, sample: SecondOrderSample) -> UncertaintyTriple:
    """Expectation-form decomposition, the oracle for :func:`decompose`.

    total is the average expected loss of the member mean against each
    member, aleatoric the average expected loss of each member against
    itself, and epistemic their difference.  Only pointwise losses and
    finite label sums are used; none of the closed-form kernels are.
    """
    matrix = sample.matrix
    mean_losses = _loss_table(rule, sample.means)  # (1, K)
    member_losses = _loss_table(rule, matrix)  # (M, K)
    # Zero-probability labels annihilate infinite losses (0 * inf := 0).
    with np.errstate(invalid="ignore"):
        tu_terms = np.where(matrix > 0.0, matrix * mean_losses, 0.0)
        au_terms = np.where(matrix > 0.0, matrix * member_losses, 0.0)
    total = float(tu_terms.sum(axis=1).mean())
    aleatoric = float(au_terms.sum(axis=1).mean())
    _check_triples(total, aleatoric, total - aleatoric)
    return UncertaintyTriple(total, aleatoric, total - aleatoric)
