"""Rank-based AUROC for separating in-distribution from OoD uncertainty.

Out-of-distribution instances are the positive class: the AUROC is the
probability that a randomly chosen OoD uncertainty score exceeds a
randomly chosen in-distribution one, with ties credited one half.  The
fast path ranks the pooled scores once in numpy (average ranks on ties,
equal to ``scipy.stats.rankdata(method="average")`` bit for bit, without
importing ``scipy.stats``); the quadratic pairwise count is kept as an
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, EmptySide, NonFiniteScore
from .measures import COMPONENTS, ScoringRule, SecondOrderSample, _decompose_samples, check_component
from .measures import decompose  # noqa: F401 - unused, but bench/tracing.py wraps it here

__all__ = ["ScoreSplit", "AurocResult", "auroc", "auroc_pairwise", "run_ood"]


@dataclass(frozen=True)
class ScoreSplit:
    """Uncertainty scores for in-distribution and OoD instances."""

    id_scores: np.ndarray
    ood_scores: np.ndarray

    def __post_init__(self):
        for name in ("id_scores", "ood_scores"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).reshape(-1)
            if arr.size == 0:
                raise EmptySide(f"{name} is empty")
            if not np.all(np.isfinite(arr)):
                # A non-finite uncertainty score cannot come from a valid
                # belief, so it signals corruption upstream; refuse to rank it.
                raise NonFiniteScore(f"{name} contains non-finite values")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class AurocResult:
    auroc: float
    n_id: int
    n_ood: int


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``; each group of equal values shares its mean rank."""
    order = np.argsort(x, kind="stable")
    s = x[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    ends = np.append(starts[1:], s.size)
    # positions start..end-1 hold ranks start+1..end; their mean is a half-integer
    ranks = np.empty(s.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auroc(split: ScoreSplit) -> AurocResult:
    """Mann-Whitney AUROC of the split, OoD scores as positives."""
    n_id = split.id_scores.shape[0]
    n_ood = split.ood_scores.shape[0]
    pooled = np.concatenate([split.ood_scores, split.id_scores])
    ranks = _average_ranks(pooled)
    # Tie-credited win count; a multiple of 0.5, exactly representable.
    u = float(ranks[:n_ood].sum()) - n_ood * (n_ood + 1) / 2.0
    d = float(n_id * n_ood)
    # Divide the smaller of u and d-u so that swapping the two sides yields
    # values summing to exactly 1.0.
    if 2.0 * u <= d:
        value = u / d
    else:
        value = 1.0 - (d - u) / d
    return AurocResult(value, n_id, n_ood)


def auroc_pairwise(split: ScoreSplit) -> float:
    """Quadratic-time AUROC from the pairwise definition (oracle path)."""
    ood = split.ood_scores[:, None]
    idd = split.id_scores[None, :]
    wins = np.count_nonzero(ood > idd)
    ties = np.count_nonzero(ood == idd)
    return (wins + 0.5 * ties) / (split.id_scores.size * split.ood_scores.size)


def run_ood(
    id_samples: Sequence[SecondOrderSample],
    ood_samples: Sequence[SecondOrderSample],
    rule: ScoringRule,
    component: str = "epistemic",
) -> AurocResult:
    """Decompose both sample lists and score their separability.

    One batched pass decomposes both lists, per-sample ``decompose`` bit for bit.
    """
    check_component(component)
    ks = {s.k for s in id_samples} | {s.k for s in ood_samples}
    if len(ks) > 1:
        raise DimensionMismatch(f"samples disagree on class count: {sorted(ks)}")
    scores = _decompose_samples([rule], list(id_samples) + list(ood_samples))[0, COMPONENTS.index(component)]
    return auroc(ScoreSplit(scores[: len(id_samples)], scores[len(id_samples) :]))
