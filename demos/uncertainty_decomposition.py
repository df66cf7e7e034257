#!/usr/bin/env python3
"""Walk through the loss-based uncertainty decomposition on small beliefs.

Each belief is a handful of member distributions (think: one per ensemble
member).  For every scoring rule, total uncertainty is the entropy of the
member mean, aleatoric the average member entropy, and epistemic the
average divergence of the mean from the members; the three always add up.
"""

import numpy as np

from uqscore import ScoringRule, SecondOrderSample, decompose, generic_triple

BELIEFS = {
    "agreeing, confident": [[0.95, 0.03, 0.02], [0.93, 0.05, 0.02]],
    "agreeing, uncertain": [[0.4, 0.35, 0.25], [0.38, 0.34, 0.28]],
    "disagreeing members": [[0.85, 0.10, 0.05], [0.15, 0.80, 0.05]],
    "single member": [[0.6, 0.3, 0.1]],
}


def show(name, members):
    sample = SecondOrderSample(members)
    print(f"\n{name}  (M={sample.m}, mean={np.round(sample.mean, 3)})")
    print(f"  {'rule':10s} {'total':>9s} {'aleatoric':>10s} {'epistemic':>10s}   oracle gap")
    for rule in ScoringRule:
        total, aleatoric, epistemic = (part[0] for part in decompose(rule, sample))  # (1,) arrays: one belief
        oracle = generic_triple(rule, sample)  # floats
        gap = max(
            abs(total - oracle.total),
            abs(aleatoric - oracle.aleatoric),
            abs(epistemic - oracle.epistemic),
        )
        print(f"  {rule.value:10s} {total:9.5f} {aleatoric:10.5f} {epistemic:10.5f}   {gap:.1e}")


def main():
    print("Uncertainty decomposition under four scoring rules")
    print("(closed forms, checked against the expectation-form oracle)")
    for name, members in BELIEFS.items():
        show(name, members)

    print("\nNotice:")
    print("  * agreeing members leave epistemic uncertainty at zero;")
    print("  * disagreement moves mass from aleatoric to epistemic;")
    print("  * a single member can carry no epistemic uncertainty at all;")
    print("  * zero-one epistemic uncertainty ignores disagreement that")
    print("    leaves the winning class unchanged:")
    sample = SecondOrderSample([[0.9, 0.1], [0.6, 0.4]])
    for rule in (ScoringRule.ZERO_ONE, ScoringRule.LOG):
        print(f"      {rule.value}: EU = {decompose(rule, sample).epistemic[0]:.5f}")


if __name__ == "__main__":
    main()
