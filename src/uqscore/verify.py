"""Self-contained oracle suites runnable from the CLI.

Every suite re-derives a result along an independent path and reports the
worst observed deviation: closed-form decompositions against the
expectation-form oracle, brute-force AULC minimization against the
ascending sort, rank-based AUROC against the pairwise count, and the
binary-class claim that all total-uncertainty measures induce the same
instance ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measures, ood, selective
from .errors import BadConfig
from .measures import ScoringRule, SecondOrderSample

__all__ = ["SuiteResult", "ALL_SUITES", "run_suites", "random_belief"]

RULES = tuple(ScoringRule)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    worst: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: worst deviation {self.worst:.3e} ({self.detail})"


def random_belief(rng: np.random.Generator, k: int | None = None, m: int | None = None) -> SecondOrderSample:
    """A fuzzed second-order sample, biased toward awkward cases.

    Mixes flat and sparse Dirichlet members with variants that plant exact
    zeros, either in shared columns (zero mean entries) or per member, to
    exercise the 0*log(0) and 0*inf conventions.
    """
    k = int(rng.integers(2, 11)) if k is None else k
    m = int(rng.integers(1, 51)) if m is None else m
    style = rng.random()
    if style < 0.55:
        matrix = rng.dirichlet(np.ones(k), m)
    elif style < 0.75:
        matrix = rng.dirichlet(np.full(k, 0.3), m)
    elif style < 0.90:
        # Shared zero columns: the mean itself has zero entries.
        matrix = rng.dirichlet(np.ones(k), m)
        cols = rng.random(k) < 0.4
        cols[int(rng.integers(k))] = False
        matrix[:, cols] = 0.0
        matrix /= matrix.sum(axis=1, keepdims=True)
    else:
        # Per-member zeros: members vanish where the mean does not.
        matrix = rng.dirichlet(np.ones(k), m)
        mask = rng.random(matrix.shape) < 0.3
        keep = np.argmax(matrix, axis=1)
        mask[np.arange(m), keep] = False
        matrix[mask] = 0.0
        matrix /= matrix.sum(axis=1, keepdims=True)
    return SecondOrderSample(matrix)


def suite_decompose(n_samples: int = 2000, seed: int = 1819) -> SuiteResult:
    """Closed forms vs the expectation-form oracle, plus additivity."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        sample = random_belief(rng)
        for rule in RULES:
            closed = measures.decompose(rule, sample)
            generic = measures.generic_triple(rule, sample)
            worst = max(
                worst,
                abs(closed.total - closed.aleatoric - closed.epistemic),
                abs(closed.total - generic.total),
                abs(closed.aleatoric - generic.aleatoric),
                abs(closed.epistemic - generic.epistemic),
                max(0.0, -closed.epistemic),
            )
    return SuiteResult("decompose", worst <= 1e-9, worst, f"{n_samples} samples x 4 rules, tol 1e-9")


def suite_aulc(n_bruteforce: int = 60, n_forms: int = 200, seed: int = 2423) -> SuiteResult:
    """Brute-force minimizer vs ascending sort, and the two sum forms."""
    rng = np.random.default_rng(seed)
    worst_bf = 0.0
    for _ in range(n_bruteforce):
        n = int(rng.integers(2, 8))
        losses = rng.random(n)
        _, best = selective.optimal_aulc_bruteforce(losses)
        ascending = selective.aulc(losses, selective.Ordering(np.argsort(losses, kind="stable")))
        worst_bf = max(worst_bf, abs(best - ascending.aulc))
    worst_forms = 0.0
    for _ in range(n_forms):
        n = int(rng.integers(1, 201))
        losses = rng.random(n)
        ordering = selective.Ordering(rng.permutation(n))
        worst_forms = max(
            worst_forms,
            abs(selective.aulc(losses, ordering).aulc - selective.aulc_weighted(losses, ordering)),
        )
    passed = worst_bf <= 1e-9 and worst_forms <= 1e-12
    worst = max(worst_bf, worst_forms)
    return SuiteResult(
        "aulc",
        passed,
        worst,
        f"{n_bruteforce} brute-force cases tol 1e-9, {n_forms} form checks tol 1e-12",
    )


def suite_auroc(n_splits: int = 100, seed: int = 2931, max_side: int = 300) -> SuiteResult:
    """Rank-based estimator vs the pairwise count, and exact complement."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    complement_dev = 0.0
    for _ in range(n_splits):
        n_id = int(rng.integers(1, max_side + 1))
        n_ood = int(rng.integers(1, max_side + 1))
        id_scores = rng.random(n_id)
        ood_scores = rng.random(n_ood) + rng.normal(0.3, 0.5)
        if rng.random() < 0.5:  # force ties
            id_scores = np.round(id_scores, 1)
            ood_scores = np.round(ood_scores, 1)
        split = ood.ScoreSplit(id_scores, ood_scores)
        fast = ood.auroc(split).auroc
        slow = ood.auroc_pairwise(split)
        worst = max(worst, abs(fast - slow))
        swapped = ood.auroc(ood.ScoreSplit(ood_scores, id_scores)).auroc
        complement_dev = max(complement_dev, abs(fast + swapped - 1.0))
    passed = worst <= 1e-12 and complement_dev == 0.0
    return SuiteResult(
        "auroc",
        passed,
        max(worst, complement_dev),
        f"{n_splits} splits, pairwise tol 1e-12, complement exact",
    )


def suite_binary_ordering(n_samples: int = 300, seed: int = 3739) -> SuiteResult:
    """For K=2, total uncertainty ranks instances identically under all rules."""
    rng = np.random.default_rng(seed)
    samples = [random_belief(rng, k=2, m=int(rng.integers(1, 11))) for _ in range(n_samples)]
    totals = measures._decompose_samples(RULES, samples)[:, 0]
    rankings = [np.lexsort((np.arange(n_samples), values)) for values in totals]
    mismatches = sum(int(np.any(r != rankings[0])) for r in rankings[1:])
    return SuiteResult(
        "binary-ordering",
        mismatches == 0,
        float(mismatches),
        f"{n_samples} K=2 samples, exact permutation match",
    )


ALL_SUITES = {
    "decompose": suite_decompose,
    "aulc": suite_aulc,
    "auroc": suite_auroc,
    "binary-ordering": suite_binary_ordering,
}


def run_suites(names: list[str] | None = None) -> list[SuiteResult]:
    """Run the requested suites (all by default) with their fixed seeds.

    A suite that raises counts as failed: internal consistency checks
    (such as the additivity validation on uncertainty triples) may trip
    before a deviation can be measured.
    """
    chosen = list(ALL_SUITES) if not names else names
    unknown = [n for n in chosen if n not in ALL_SUITES]
    if unknown:
        raise BadConfig(f"unknown suites {unknown}; available: {list(ALL_SUITES)}")
    results = []
    for name in chosen:
        try:
            results.append(ALL_SUITES[name]())
        except Exception as exc:  # noqa: BLE001 - report, do not mask, the fault
            results.append(SuiteResult(name, False, float("inf"), f"crashed: {exc}"))
    return results
