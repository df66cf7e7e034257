"""Loss-rejection curves and their area (AULC) for selective prediction.

Instances are ranked by an uncertainty component; the curve records the
average realized task loss over the k least uncertain instances for every
retention level k = 1..n, and the AULC is the plain average of those
prefix means (the Riemann sum with step 1/n).  Interchanging the two sums
gives the algebraically identical harmonic-weight form, and enumerating
all permutations for small n gives a brute-force certificate that sorting
by instance-wise expected loss is optimal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UqscoreError
from .measures import Beliefs, ScoringRule, SecondOrderSample, _component_scores, loss
from .measures import decompose  # noqa: F401 - unused, but bench/tracing.py wraps it here

__all__ = [
    "Ordering",
    "AulcResult",
    "order_by_uncertainty",
    "harmonic_weights",
    "aulc",
    "aulc_weighted",
    "optimal_aulc_bruteforce",
    "run_selective_prediction",
]


@dataclass(frozen=True)
class Ordering:
    """A permutation of 0..n-1 plus a description of what produced it."""

    perm: np.ndarray
    criterion: str = "external"

    def __post_init__(self):
        p = np.asarray(self.perm, dtype=np.intp)
        if sorted(p.tolist()) != list(range(p.shape[0])):
            raise UqscoreError("perm is not a permutation of 0..n-1")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "perm", p)

    @property
    def n(self) -> int:
        return self.perm.shape[0]

    def reversed(self) -> "Ordering":
        """The same ranking evaluated back to front (most uncertain first)."""
        return Ordering(self.perm[::-1], criterion=f"reversed({self.criterion})")


@dataclass(frozen=True)
class AulcResult:
    """AULC value plus the per-retention-level mean losses behind it.

    ``curve[k - 1]`` is the average loss over the first k instances of the
    evaluated ordering, so ``aulc == curve.mean()``.
    """

    aulc: float
    curve: np.ndarray
    criterion: str = "external"

    @property
    def n(self) -> int:
        return self.curve.shape[0]


def order_by_uncertainty(beliefs: Sequence[Beliefs], rule: ScoringRule, component: str = "total") -> Ordering:
    """Rank instances, the rows of ``beliefs`` (samples or pools), by ascending uncertainty (least uncertain first).

    Ties keep the original instance order.  The retained prefix of the
    returned permutation is what a selective predictor would answer on;
    call :meth:`Ordering.reversed` for the most-uncertain-first reading.
    One batched pass gives per-row ``decompose`` values bit for bit.
    """
    values = _component_scores(rule, beliefs, component)
    if values.size == 0:
        raise UqscoreError("cannot order an empty list of samples")
    return Ordering(np.argsort(values, kind="stable"), criterion=f"{rule}:{component}")


def harmonic_weights(n: int) -> np.ndarray:
    """Tail sums w_j = sum_{k=j}^{n} 1/k for j = 1..n (decreasing, positive)."""
    if n < 1:
        raise UqscoreError("need n >= 1")
    inv = 1.0 / np.arange(1, n + 1)
    return np.cumsum(inv[::-1])[::-1]


def _check_losses(losses) -> np.ndarray:
    arr = np.asarray(losses, dtype=np.float64).reshape(-1)
    if arr.shape[0] < 1:
        raise UqscoreError("need at least one instance loss")
    if not np.all(arr >= 0.0):  # also rejects NaN
        raise UqscoreError("instance losses must be nonnegative (and not NaN)")
    return arr


def aulc(losses: Sequence[float], ordering: Ordering) -> AulcResult:
    """Area under the loss-rejection curve for a given instance ordering.

    Computed as the average over k = 1..n of the mean loss among the first
    k instances of ``ordering``.  An infinite loss poisons every prefix
    that contains it, making the AULC infinite; nothing is clamped.
    """
    arr = _check_losses(losses)
    if arr.shape[0] != ordering.n:
        raise UqscoreError(f"{arr.shape[0]} losses vs permutation of {ordering.n}")
    permuted = arr[ordering.perm]
    ks = np.arange(1, arr.shape[0] + 1, dtype=np.float64)
    curve = np.cumsum(permuted) / ks
    value = float(curve.mean())
    curve.setflags(write=False)
    return AulcResult(value, curve, ordering.criterion)


def aulc_weighted(losses: Sequence[float], ordering: Ordering) -> float:
    """The harmonic-weight form (1/n) * sum_j w_j * losses[perm(j)].

    Equal to :func:`aulc` up to floating-point noise; kept as an
    independent computation path for cross-checking.
    """
    arr = _check_losses(losses)
    if arr.shape[0] != ordering.n:
        raise UqscoreError(f"{arr.shape[0]} losses vs permutation of {ordering.n}")
    w = harmonic_weights(arr.shape[0])
    return float(np.dot(w, arr[ordering.perm]) / arr.shape[0])


def optimal_aulc_bruteforce(expected_losses: Sequence[float]) -> tuple[Ordering, float]:
    """Minimize the AULC over every permutation of at most 8 instances.

    Returns the lexicographically smallest minimizer, whose value must
    (and is tested to) coincide with sorting the losses in non-decreasing
    order.
    """
    arr = _check_losses(expected_losses)
    n = arr.shape[0]
    if n > 8:
        raise UqscoreError(f"brute force over {n}! permutations refused (max n=8)")
    w = harmonic_weights(n)
    # strict improvement keeps the lexicographically smallest minimizer,
    # starting from the identity (covers all-infinite loss vectors too)
    best_perm = tuple(range(n))
    best_value = float(np.dot(w, arr) / n)
    for perm in itertools.permutations(range(n)):
        value = float(np.dot(w, arr[list(perm)]) / n)
        if value < best_value:
            best_value = value
            best_perm = perm
    return Ordering(np.array(best_perm), criterion="bruteforce"), best_value


def run_selective_prediction(
    predictions: Sequence[tuple[SecondOrderSample, int]],
    task_rule: ScoringRule,
    uncertainty_rule: ScoringRule,
    component: str = "total",
    descending: bool = False,
) -> AulcResult:
    """Evaluate uncertainty-based rejection on labeled second-order predictions.

    The realized task loss of each instance is the pointwise loss of its member
    mean (the model average) against the observed label, all from one batched
    pass of the loss core; instances are retained in ascending order of the
    chosen uncertainty component, or descending when ``descending`` is set.
    """
    if len(predictions) == 0:
        raise UqscoreError("need at least one labeled prediction")
    samples, labels = zip(*predictions)
    ordering = order_by_uncertainty(samples, uncertainty_rule, component)
    if descending:
        ordering = ordering.reversed()
    return aulc(loss(task_rule, np.concatenate([s.means for s in samples]), labels), ordering)
