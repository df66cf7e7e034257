#!/usr/bin/env python3
"""Pool-based active learning on the epistemic-gap benchmark.

The unlabeled pool hides a small cluster far from everything the initial
labels cover.  Ensemble members disagree on its class, so epistemic
acquisition queries it immediately, while random acquisition stumbles
into it only occasionally; the test loss drops accordingly.
"""

import statistics

import numpy as np

from uqscore import AcquisitionStrategy, ScoringRule, make_epistemic_gap, run_active_learning
from uqscore.benchmarks import GAP_LEARNER

ROUNDS, BATCH, TARGET = 14, 6, 0.1

STRATEGIES = {
    "zero-one EU": AcquisitionStrategy.uncertainty(ScoringRule.ZERO_ONE),
    "log EU": AcquisitionStrategy.uncertainty(ScoringRule.LOG),
    "random": AcquisitionStrategy.random(),
}


def main():
    print("Active learning on the epistemic-gap benchmark")
    print(f"(rounds={ROUNDS}, batch={BATCH}, target test loss {TARGET})\n")
    rounds_to = {name: [] for name in STRATEGIES}
    example_traces = {}
    for seed in range(5):
        data, split = make_epistemic_gap(60, 6, seed=seed)
        for name, strategy in STRATEGIES.items():
            trace = run_active_learning(
                data, split, GAP_LEARNER, strategy, ROUNDS, BATCH, seed=seed
            )
            reached = trace.rounds_to_reach(TARGET)
            rounds_to[name].append(ROUNDS + 1 if reached is None else reached)
            if seed == 1:
                example_traces[name] = trace

    print("Test zero-one loss by round (seed 1):")
    for name, trace in example_traces.items():
        cells = " ".join(f"{v:.2f}" for v in trace.test_losses)
        print(f"  {name:12s} {cells}")

    print(f"\nRounds until test loss <= {TARGET} (censored at {ROUNDS + 1}):")
    for name, values in rounds_to.items():
        print(f"  {name:12s} per-seed {values}  median {statistics.median(values)}")
    print("\nEpistemic acquisition needs a fraction of the rounds random does;")
    print("the gap cluster is exactly where the ensemble members disagree.")


if __name__ == "__main__":
    main()
