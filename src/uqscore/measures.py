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

import contextlib
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.special import rel_entr, xlogy

from .errors import (
    BadConfig,
    DimensionMismatch,
    InconsistentDecomposition,
    LabelOutOfRange,
    NegativeEntry,
    NotNormalized,
    SimplexError,
    ZeroMass,
)

__all__ = [
    "SIMPLEX_TOLERANCE",
    "COMPONENTS",
    "ScoringRule",
    "CategoricalDistribution",
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


@dataclass(frozen=True, eq=False)
class CategoricalDistribution:
    """A point on the probability simplex over K >= 2 classes.

    The wrapped array is copied, cast to float64, and marked read-only.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=np.float64, copy=True).reshape(-1)
        _check_simplex_rows(arr[None, :])
        np.clip(arr, 0.0, 1.0, out=arr)  # float-noise entries within tolerance
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def k(self) -> int:
        return self.probs.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CategoricalDistribution):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)

    def __repr__(self) -> str:
        return f"CategoricalDistribution({np.array2string(self.probs, separator=', ')})"

    @classmethod
    def _of_checked(cls, probs: np.ndarray) -> "CategoricalDistribution":
        """Wrap a read-only float64 (K,) row that already passed the simplex check, without a copy."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "probs", probs)
        return dist


def _check_simplex_rows(rows: np.ndarray) -> None:
    """Raise unless every row of ``rows`` is a valid simplex point."""
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise SimplexError("expected a non-empty probability vector")
    if rows.shape[1] < 2:
        raise SimplexError("a categorical distribution needs at least two classes")
    if not np.all(np.isfinite(rows)):
        raise SimplexError("probabilities must be finite")
    if np.any(rows < -1e-12):
        raise NegativeEntry(f"negative entry {float(rows.min())!r}")
    if np.any(rows > 1.0 + SIMPLEX_TOLERANCE):
        raise NotNormalized(f"entry {float(rows.max())!r} exceeds 1")
    sums = rows.sum(axis=1)
    bad = np.abs(sums - 1.0) > SIMPLEX_TOLERANCE
    if np.any(bad):
        raise NotNormalized(f"entries sum to {float(sums[bad][0])!r}, not 1")


def _build_beliefs(members: np.ndarray, check_members: bool = True) -> np.ndarray:
    """Check, clip, average and freeze (..., M, K) member rows in place; returns their checked (..., K) means.

    The one belief build, for :class:`SecondOrderSample`, parsed files and the active-learning pool.
    """
    k = members.shape[-1]
    if check_members:
        _check_simplex_rows(members.reshape(math.prod(members.shape[:-1]), k))
    np.clip(members, 0.0, 1.0, out=members)  # float-noise entries within tolerance
    means = members.mean(axis=-2)
    # Subnormal member entries can average to exactly zero; drop such
    # dust so a zero mean entry always implies all-zero member entries
    # (which keeps every divergence finite).
    underflow = (means == 0.0) & (members > 0.0).any(axis=-2)
    if underflow.any():
        np.copyto(members, 0.0, where=underflow[..., None, :])
    _check_simplex_rows(means.reshape(-1, k))
    members.setflags(write=False)
    means.setflags(write=False)
    return means


def _prepare_rows(rows: np.ndarray, renormalize: bool) -> np.ndarray:
    """Reject non-finite (N, K) rows; with ``renormalize``, clamp negatives and divide each row by its sum.

    The simplex check itself is left to the distribution or sample built from the result.
    """
    if not np.all(np.isfinite(rows)):
        raise SimplexError("probabilities must be finite")
    if not renormalize:
        return rows
    rows = np.clip(rows, 0.0, None)
    totals = rows.sum(axis=1)
    empty = totals <= 0.0
    if np.any(empty):
        raise ZeroMass(f"entries sum to {float(totals[empty][0])!r}; cannot renormalize")
    return rows / totals[:, None]


def validate_simplex(raw: Sequence[float], renormalize: bool = False) -> CategoricalDistribution:
    """Build a :class:`CategoricalDistribution` from a raw vector.

    With ``renormalize=False`` the vector must already satisfy the simplex
    constraints up to :data:`SIMPLEX_TOLERANCE`.  With ``renormalize=True``
    entries are clamped to be nonnegative and divided by their sum, which is
    the intended ingestion path for 32-bit predictions read from files.

    Raises
    ------
    NegativeEntry, NotNormalized
        Strict-mode violations.
    ZeroMass
        ``renormalize=True`` but the clamped entries sum to zero or less.
    """
    arr = np.asarray(raw, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise SimplexError("expected a non-empty probability vector")
    return CategoricalDistribution(_prepare_rows(arr[None, :], renormalize)[0])


class SecondOrderSample:
    """A finite belief: M member distributions plus their cached mean.

    Members are stored as the rows of an (M, K) read-only float64 matrix.
    The mean is the component-wise arithmetic average of the rows (the
    model average used for point prediction), and a mean entry of zero
    forces every member to be zero there, which keeps all divergence terms
    finite.
    """

    __slots__ = ("matrix", "mean")

    def __init__(self, matrix: np.ndarray):
        arr = np.array(matrix, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise SimplexError("expected an (M, K) matrix of member distributions")
        if arr.shape[0] < 1:
            raise SimplexError("a second-order sample needs at least one member")
        self.mean = CategoricalDistribution._of_checked(_build_beliefs(arr))
        self.matrix = arr

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def k(self) -> int:
        return self.matrix.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SecondOrderSample):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __repr__(self) -> str:
        return f"SecondOrderSample(M={self.m}, K={self.k})"


#: Most values stacked into one (n, M, K) chunk by the batched paths, which bounds their copies.
_CHUNK_VALUES = 1 << 15


def _shape_chunks(shapes: Sequence[tuple]) -> list[list[int]]:
    """Indices of the items of each (M, K) shape, in chunks of at most :data:`_CHUNK_VALUES` values or one item."""
    groups: dict[tuple, list[int]] = {}
    for i, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(i)
    chunks = []
    for shape, items in groups.items():
        step = max(1, _CHUNK_VALUES // max(1, math.prod(shape)))  # a K = 0 shape fails its simplex check later
        chunks += [items[j : j + step] for j in range(0, len(items), step)]
    return chunks


def _build_samples(matrices: Sequence[np.ndarray], renormalize: bool) -> list[SecondOrderSample]:
    """Samples of float64 (M, K) arrays, in order: one prepare and belief build per (M, K) chunk.

    Each sample's matrix and mean are read-only views into its chunk, a copy: ``matrices`` stay as given.
    """
    samples = [None] * len(matrices)
    for chunk in _shape_chunks([matrix.shape for matrix in matrices]):
        n, m, k = len(chunk), *matrices[chunk[0]].shape
        members = _prepare_rows(np.concatenate([matrices[i] for i in chunk]), renormalize).reshape(n, m, k)
        for i, matrix, mean in zip(chunk, members, _build_beliefs(members)):
            samples[i] = sample = object.__new__(SecondOrderSample)
            sample.matrix, sample.mean = matrix, CategoricalDistribution._of_checked(mean)
    return samples


@dataclass(frozen=True)
class UncertaintyTriple:
    """Total, aleatoric, and epistemic uncertainty under one scoring rule.

    Additive by construction: total = aleatoric + epistemic within 1e-9
    (extended-real aware), and epistemic >= -1e-12 by properness.
    """

    total: float
    aleatoric: float
    epistemic: float
    rule: ScoringRule

    def __post_init__(self):
        _check_triples(self.total, self.aleatoric, self.epistemic)

    def component(self, name: str) -> float:
        """Return one of the three components by name."""
        check_component(name)
        return getattr(self, name)


def _check_triples(total, aleatoric, epistemic) -> None:
    """Raise :class:`InconsistentDecomposition` at the first (float or array) triple not additive or not proper."""
    # inf - inf is a silent nan for floats but warns for arrays; entering errstate costs microseconds
    with np.errstate(invalid="ignore") if isinstance(total, np.ndarray) else contextlib.nullcontext():
        ok = (abs(total - aleatoric - epistemic) <= 1e-9) & (epistemic >= -1e-12)
        ok &= (total >= -1e-12) & (aleatoric >= -1e-12)
    if ok is True or np.all(ok):  # floats give a plain bool, which np.all would take microseconds over
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
# Each kernel reduces over the last (class) axis of arrays of any leading
# shape; ``_decompose_arrays``, ``entropy`` and ``divergence`` all dispatch
# through these dictionaries, so a single corrupted entry is caught by the
# verification suites.
# ---------------------------------------------------------------------------


def _entropy_log(t: np.ndarray) -> np.ndarray:
    return -xlogy(t, t).sum(axis=-1)


def _entropy_brier(t: np.ndarray) -> np.ndarray:
    return 1.0 - np.square(t).sum(axis=-1)


def _entropy_zero_one(t: np.ndarray) -> np.ndarray:
    return 1.0 - t.max(axis=-1)


def _entropy_spherical(t: np.ndarray) -> np.ndarray:
    return 1.0 - np.linalg.norm(t, axis=-1)


def _divergence_log(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    # rel_entr(t, p) = t * log(t / p), with 0 * log(0 / p) = 0 and +inf when
    # t > 0 = p: exactly the extended-real KL convention used throughout.
    return rel_entr(t, p).sum(axis=-1)


def _divergence_brier(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    diff = p - t
    return np.square(diff, out=diff).sum(axis=-1)  # in place: one pool-sized temporary, not two


def _divergence_zero_one(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    hit = np.argmax(p, axis=-1)[..., None] == np.arange(p.shape[-1])  # one-hot argmax of p
    return t.max(axis=-1) - t.max(axis=-1, where=hit, initial=-np.inf)  # t at that argmax, read exactly


def _divergence_spherical(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.linalg.norm(t, axis=-1) - (p * t).sum(axis=-1) / np.linalg.norm(p, axis=-1)


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


def loss(rule: ScoringRule, prediction: CategoricalDistribution, label: int) -> float:
    """Pointwise loss of predicting ``prediction`` when class ``label`` occurs.

    Labels are 1-based.  The log loss returns ``+inf`` when the predicted
    probability of the realized label is exactly zero; no epsilon clamping
    happens here (use ``validate_simplex(..., renormalize=True)`` upstream
    if clamped inputs are wanted).
    """
    p = prediction.probs
    k = p.shape[0]
    if not isinstance(label, (int, np.integer)) or not 1 <= label <= k:
        raise LabelOutOfRange(f"label {label!r} not in 1..{k}")
    y = label - 1
    if rule is ScoringRule.LOG:
        py = p[y]
        return math.inf if py == 0.0 else -math.log(py)
    if rule is ScoringRule.BRIER:
        diff = p.copy()
        diff[y] -= 1.0
        return float(np.square(diff).sum())
    if rule is ScoringRule.ZERO_ONE:
        # np.argmax breaks ties at the smallest index, matching the tie
        # policy used by the closed forms and the learners.
        return 0.0 if int(np.argmax(p)) == y else 1.0
    if rule is ScoringRule.SPHERICAL:
        return 1.0 - float(p[y]) / float(np.linalg.norm(p))
    raise ValueError(f"unknown scoring rule {rule!r}")


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
    if rule is ScoringRule.SPHERICAL:
        return 1.0 - rows / np.linalg.norm(rows, axis=1, keepdims=True)
    raise ValueError(f"unknown scoring rule {rule!r}")


def expected_loss(
    rule: ScoringRule,
    prediction: CategoricalDistribution,
    truth: CategoricalDistribution,
) -> float:
    """Expected pointwise loss under labels drawn from ``truth``.

    A zero-probability label contributes zero even when its loss is
    infinite (the 0 * inf := 0 convention that keeps entropies finite).
    """
    if prediction.k != truth.k:
        raise DimensionMismatch(f"prediction has K={prediction.k}, truth has K={truth.k}")
    total = 0.0
    for y in range(1, truth.k + 1):
        ty = truth.probs[y - 1]
        if ty == 0.0:
            continue
        total += ty * loss(rule, prediction, y)
    return total


def entropy(rule: ScoringRule, truth: CategoricalDistribution) -> float:
    """Generalized entropy: the expected loss of predicting ``truth`` against itself.

    Closed forms per rule: Shannon entropy (log), Gini impurity (Brier),
    one minus the maximum (zero-one), one minus the Euclidean norm
    (spherical).  Always finite and nonnegative.
    """
    return float(_ENTROPY_KERNELS[rule](truth.probs))


def divergence(
    rule: ScoringRule,
    prediction: CategoricalDistribution,
    truth: CategoricalDistribution,
) -> float:
    """Excess expected loss of predicting ``prediction`` instead of ``truth``.

    Nonnegative for every rule by properness.  Zero only at
    ``prediction == truth`` for the strictly proper rules; the zero-one
    divergence also vanishes whenever the two share an argmax.
    """
    if prediction.k != truth.k:
        raise DimensionMismatch(f"prediction has K={prediction.k}, truth has K={truth.k}")
    return float(_DIVERGENCE_KERNELS[rule](prediction.probs, truth.probs))


def _decompose_arrays(rule: ScoringRule, members: np.ndarray, means: np.ndarray):
    """Closed-form (total, aleatoric, epistemic) arrays of checked (..., M, K) beliefs and their (..., K) means.

    The one place the kernel tables are combined; callers run :func:`_check_triples`.
    """
    total = _ENTROPY_KERNELS[rule](means)
    if members.shape[-2] == 1:
        # the mean is the sole member, so there is exactly nothing to gain
        return total, total, np.zeros_like(total)
    aleatoric = _ENTROPY_KERNELS[rule](members).mean(axis=-1)
    epistemic = _DIVERGENCE_KERNELS[rule](means[..., None, :], members).mean(axis=-1)
    return total, aleatoric, epistemic


def decompose(rule: ScoringRule, sample: SecondOrderSample) -> UncertaintyTriple:
    """Closed-form uncertainty decomposition of a finite belief.

    total = entropy of the member mean, aleatoric = average member entropy,
    epistemic = average divergence of the mean from the members.
    """
    total, aleatoric, epistemic = _decompose_arrays(rule, sample.matrix, sample.mean.probs)
    return UncertaintyTriple(float(total), float(aleatoric), float(epistemic), rule)


def _decompose_samples(rules: Sequence[ScoringRule], samples: Sequence[SecondOrderSample]) -> np.ndarray:
    """Per-sample :func:`decompose` under each rule, bit for bit, as an (R, 3, N) array.

    One kernel pass per (M, K) chunk and rule, then one check, which raises
    as per-sample calls would: sample by sample, then rule by rule.
    """
    out = np.empty((len(rules), 3, len(samples)))
    for chunk in _shape_chunks([s.matrix.shape for s in samples]):
        members = np.stack([samples[i].matrix for i in chunk])
        means = np.stack([samples[i].mean.probs for i in chunk])
        for r, rule in enumerate(rules):
            out[r][:, chunk] = _decompose_arrays(rule, members, means)
    _check_triples(*out.transpose(1, 2, 0).reshape(3, -1))
    return out


def generic_triple(rule: ScoringRule, sample: SecondOrderSample) -> UncertaintyTriple:
    """Expectation-form decomposition, the oracle for :func:`decompose`.

    total is the average expected loss of the member mean against each
    member, aleatoric the average expected loss of each member against
    itself, and epistemic their difference.  Only pointwise losses and
    finite label sums are used; none of the closed-form kernels are.
    """
    matrix = sample.matrix
    mean_losses = _loss_table(rule, sample.mean.probs[None, :])  # (1, K)
    member_losses = _loss_table(rule, matrix)  # (M, K)
    # Zero-probability labels annihilate infinite losses (0 * inf := 0).
    with np.errstate(invalid="ignore"):
        tu_terms = np.where(matrix > 0.0, matrix * mean_losses, 0.0)
        au_terms = np.where(matrix > 0.0, matrix * member_losses, 0.0)
    total = float(tu_terms.sum(axis=1).mean())
    aleatoric = float(au_terms.sum(axis=1).mean())
    return UncertaintyTriple(total, aleatoric, total - aleatoric, rule)
