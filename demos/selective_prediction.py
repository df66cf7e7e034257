#!/usr/bin/env python3
"""Selective prediction: reject the most uncertain instances first.

The area under the loss-rejection curve (AULC) averages the retained-set
loss over all retention levels, so a good rejection order keeps it low.
Two things are demonstrated on a synthetic corpus with known ground-truth
label distributions:

1. ordering by total uncertainty under the *task* loss beats orderings
   under mismatched losses (and beats aleatoric- or epistemic-only
   orderings outright);
2. the brute-force oracle over all orderings of small instance sets
   confirms that sorting by instance-wise expected loss is optimal.
"""

import numpy as np

from uqscore import (
    Ordering,
    ScoringRule,
    SecondOrderSample,
    aulc,
    expected_loss,
    optimal_aulc_bruteforce,
    order_by_uncertainty,
)

RULES = tuple(ScoringRule)


def make_corpus(seed, n_families=30):
    """Instances whose rule orderings genuinely differ."""
    rng = np.random.default_rng(seed)
    bases = [
        np.array([0.52, 0.44, 0.02, 0.02]),  # tiny argmax margin, thin tails
        np.array([0.70, 0.10, 0.10, 0.10]),  # wide margin, fat tails
        np.array([0.92, 0.04, 0.02, 0.02]),  # confident
        np.array([0.30, 0.28, 0.22, 0.20]),  # near uniform
    ]
    truths, samples = [], []
    for _ in range(n_families):
        for base in bases:
            theta = rng.dirichlet(base * 60)
            truths.append(theta)
            samples.append(SecondOrderSample(rng.dirichlet(theta * 300.0, size=8)))
        theta = rng.dirichlet(np.array([0.45, 0.35, 0.1, 0.1]) * 50)
        truths.append(theta)
        samples.append(SecondOrderSample(rng.dirichlet(theta * 6.0, size=8)))
    return truths, samples


def expected_aulc(samples, truths, task_rule, unc_rule, component):
    costs = expected_loss(task_rule, np.array([s.mean for s in samples]), truths)  # one row per instance
    return aulc(costs, order_by_uncertainty(samples, unc_rule, component)).aulc


def main():
    print("Expected AULC by task loss (rows) and uncertainty loss (columns),")
    print("averaged over 5 corpora; total uncertainty is the criterion.\n")
    seeds = range(5)
    corpora = [make_corpus(seed) for seed in seeds]
    header = "  ".join(f"{r.value:>9s}" for r in RULES)
    print(f"  {'task':10s} {header}   best")
    for task in RULES:
        row = {}
        for unc in RULES:
            row[unc] = np.mean(
                [expected_aulc(s, t, task, unc, "total") for t, s in corpora]
            )
        best = min(row, key=row.get)
        cells = "  ".join(f"{row[r]:9.5f}" for r in RULES)
        marker = "matched" if row[task] <= row[best] + 1e-12 else best.value
        print(f"  {task.value:10s} {cells}   {marker}")

    print("\nTotal vs aleatoric vs epistemic as the rejection criterion")
    print("(matched uncertainty loss, same corpora):")
    for task in RULES:
        vals = {
            c: np.mean([expected_aulc(s, t, task, task, c) for t, s in corpora])
            for c in ("total", "aleatoric", "epistemic")
        }
        print(
            f"  {task.value:10s} total={vals['total']:.5f}  "
            f"aleatoric={vals['aleatoric']:.5f}  epistemic={vals['epistemic']:.5f}"
        )

    print("\nBrute-force certificate on one small instance set:")
    rng = np.random.default_rng(7)
    losses = np.round(rng.random(6), 3)
    ordering, best = optimal_aulc_bruteforce(losses)
    ascending = aulc(losses, Ordering(np.argsort(losses, kind="stable"))).aulc
    print(f"  losses            {losses.tolist()}")
    print(f"  exhaustive best   {best:.6f} via {ordering.perm.tolist()}")
    print(f"  ascending sort    {ascending:.6f} (difference {abs(best - ascending):.1e})")


if __name__ == "__main__":
    main()
