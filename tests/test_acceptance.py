"""Acceptance suite: one test per criterion, at pinned tolerances.

Every test prints a single PASS line (visible with ``pytest -s`` or in the
captured output) carrying the measured worst-case deviation or margin and
the elapsed time where a runtime budget applies.
"""

import json
import statistics
import time

import numpy as np
import pytest

from uqscore.active import AcquisitionStrategy, make_epistemic_gap, run_active_learning
from uqscore.benchmarks import GAP_LEARNER, ood_trend_run
from uqscore.cli import main
from uqscore.measures import (
    ScoringRule,
    SecondOrderSample,
    decompose,
    divergence,
    generic_triple,
    validate_simplex,
)
from uqscore.ood import ScoreSplit, auroc, auroc_pairwise
from uqscore.selective import Ordering, aulc, aulc_weighted, optimal_aulc_bruteforce
from uqscore.verify import random_belief

RULES = tuple(ScoringRule)


def report(criterion, message):
    print(f"ACCEPTANCE {criterion}: PASS ({message})")


def test_01_decomposition_identity_and_oracle_equivalence():
    """10,000 fuzzed samples: additivity and closed-vs-generic within 1e-9."""
    start = time.perf_counter()
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(10_000):
        sample = random_belief(rng)  # K in 2..10, M in 1..50
        for rule in RULES:
            total, aleatoric, epistemic = (part.item() for part in decompose(rule, sample))
            generic = generic_triple(rule, sample)
            worst = max(
                worst,
                abs(total - aleatoric - epistemic),
                abs(total - generic.total),
                abs(aleatoric - generic.aleatoric),
                abs(epistemic - generic.epistemic),
            )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 10.0
    report(1, f"worst deviation {worst:.3e}, {elapsed:.2f}s")


def test_02_properness():
    """10,000 random pairs per rule: divergence >= -1e-12; near-zero
    divergence of strictly proper rules only at near-identical pairs."""
    rng = np.random.default_rng(456)
    groups = {}  # (rule, K) -> (prediction rows, truth rows), drawn pair by pair
    for rule in RULES:
        for _ in range(10_000):
            k = int(rng.integers(2, 11))
            predictions, truths = groups.setdefault((rule, k), ([], []))
            predictions.append(rng.dirichlet(np.ones(k)))
            truths.append(rng.dirichlet(np.ones(k)))
    min_div = 0.0
    for (rule, _), (predictions, truths) in groups.items():
        prediction, truth = validate_simplex(predictions), validate_simplex(truths)
        d = divergence(rule, prediction, truth)  # one value per pair
        min_div = min(min_div, float(d.min()))
        assert (d >= -1e-12).all()
        if rule.strictly_proper:
            assert (np.abs(prediction - truth).max(axis=1)[d <= 1e-12] <= 1e-6).all()
    # pinned counterexample: zero-one divergence vanishes off the diagonal
    counter = divergence(
        ScoringRule.ZERO_ONE, validate_simplex([0.6, 0.4]), validate_simplex([0.9, 0.1])
    )
    assert counter == 0.0
    report(2, f"minimum divergence {min_div:.3e}, zero-one counterexample pinned")


def test_03_bruteforce_aulc_oracle():
    """200 random instances, n in 2..7: exhaustive minimum equals the
    ascending-expected-loss ordering within 1e-9."""
    start = time.perf_counter()
    rng = np.random.default_rng(789)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        losses = rng.random(n)
        _, best = optimal_aulc_bruteforce(losses)
        ascending = aulc(losses, Ordering(np.argsort(losses, kind="stable"))).aulc
        worst = max(worst, abs(best - ascending))
        assert abs(best - ascending) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, f"worst deviation {worst:.3e}, {elapsed:.2f}s")


def test_04_aulc_form_equivalence():
    """Riemann double sum vs harmonic weights: 1e-12 over 1,000 cases."""
    rng = np.random.default_rng(1011)
    worst = 0.0
    for _ in range(1_000):
        n = int(rng.integers(1, 501))
        losses = rng.random(n)
        ordering = Ordering(rng.permutation(n))
        dev = abs(aulc(losses, ordering).aulc - aulc_weighted(losses, ordering))
        worst = max(worst, dev)
        assert dev <= 1e-12
    report(4, f"worst deviation {worst:.3e}")


def test_05_binary_ordering_equivalence():
    """K=2: all four total-uncertainty rankings coincide exactly."""
    rng = np.random.default_rng(1213)
    samples = [random_belief(rng, k=2, m=int(rng.integers(1, 11))) for _ in range(1_000)]
    rankings = []
    for rule in RULES:
        values = np.concatenate([decompose(rule, s).total for s in samples])
        rankings.append(np.lexsort((np.arange(len(samples)), values)))
    for other in rankings[1:]:
        assert np.array_equal(rankings[0], other)
    report(5, "exact permutation match across the four rules")


def test_06_auroc_correctness():
    """Rank estimator vs pairwise definition, edge values, complement."""
    rng = np.random.default_rng(1415)
    worst = 0.0
    for _ in range(60):
        n_id = int(rng.integers(1, 1001))
        n_ood = int(rng.integers(1, 1001))
        id_scores = rng.random(n_id)
        ood_scores = rng.random(n_ood) + rng.normal(0.2, 0.4)
        if rng.random() < 0.5:
            id_scores = np.round(id_scores, 1)
            ood_scores = np.round(ood_scores, 1)
        split = ScoreSplit(id_scores, ood_scores)
        forward = auroc(split).auroc
        dev = abs(forward - auroc_pairwise(split))
        worst = max(worst, dev)
        assert dev <= 1e-12
        backward = auroc(ScoreSplit(ood_scores, id_scores)).auroc
        assert forward + backward == 1.0
    assert auroc(ScoreSplit([0.1, 0.2], [0.8, 0.9])).auroc == 1.0
    assert auroc(ScoreSplit([0.5, 0.5], [0.5, 0.5])).auroc == 0.5
    report(6, f"worst rank-vs-pairwise deviation {worst:.3e}, complement exact")


def test_07_ood_trend_at_desk_scale():
    """Far-cluster AUROC >= 0.9 per rule (mean of 5 seeds), log >= zero-one
    on medians."""
    start = time.perf_counter()
    per_rule = {rule: [] for rule in RULES}
    for seed in range(5):
        for rule, result in ood_trend_run(seed).items():
            per_rule[rule].append(result.auroc)
    means = {rule: float(np.mean(vals)) for rule, vals in per_rule.items()}
    for rule, mean in means.items():
        assert mean >= 0.9, (rule, mean)
    med_log = statistics.median(per_rule[ScoringRule.LOG])
    med_zero_one = statistics.median(per_rule[ScoringRule.ZERO_ONE])
    assert med_log >= med_zero_one
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    summary = " ".join(f"{rule.value}={mean:.3f}" for rule, mean in means.items())
    report(7, f"means {summary}; medians log {med_log:.3f} >= zero-one {med_zero_one:.3f}; {elapsed:.1f}s")


def test_08_active_learning_trend_at_desk_scale():
    """Zero-one epistemic acquisition reaches 0.1 test loss in strictly
    fewer rounds than random (medians over 5 paired seeds)."""
    start = time.perf_counter()
    rounds, batch, target = 14, 6, 0.1
    censored = rounds + 1
    rounds_to = {"zero-one": [], "log": [], "random": []}
    for seed in range(5):
        data, split = make_epistemic_gap(60, 6, seed=seed)
        runs = {
            "zero-one": AcquisitionStrategy.uncertainty(ScoringRule.ZERO_ONE),
            "log": AcquisitionStrategy.uncertainty(ScoringRule.LOG),
            "random": AcquisitionStrategy.random(),
        }
        for name, strategy in runs.items():
            trace = run_active_learning(data, split, GAP_LEARNER, strategy, rounds, batch, seed=seed)
            assert trace.test_losses[0] > target  # the gap carries real loss
            reached = trace.rounds_to_reach(target)
            rounds_to[name].append(censored if reached is None else reached)
    med = {name: statistics.median(vals) for name, vals in rounds_to.items()}
    assert med["zero-one"] < med["random"]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    # the zero-one vs log ordering is reported, not asserted
    finding = "matches" if med["zero-one"] <= med["log"] else "does not match"
    report(
        8,
        f"median rounds-to-{target}: zero-one {med['zero-one']}, log {med['log']}, "
        f"random {med['random']}; zero-one<=log {finding} the reported ordering; {elapsed:.1f}s",
    )


def test_09_cli_determinism(tmp_path, capsys):
    """Every command run twice with identical inputs produces identical bytes."""
    preds = tmp_path / "preds.jsonl"
    preds.write_text(
        '{"id": "a", "samples": [[0.9, 0.1], [0.5, 0.5]], "label": 1}\n'
        '{"id": "b", "samples": [[0.3, 0.7]], "label": 2}\n'
        '{"id": "c", "samples": [[0.6, 0.4], [0.55, 0.45]], "label": 1}\n',
        encoding="utf-8",
    )
    active_config = tmp_path / "active.json"
    active_config.write_text(
        json.dumps(
            {
                "dataset": {"kind": "epistemic_gap", "n_labeled_region": 10, "n_gap_region": 3},
                "learner": {"n_trees": 4, "depth_cap": 3, "min_leaf": 2},
                "strategies": ["random", "zero-one:epistemic"],
                "rounds": 2,
                "batch": 2,
            }
        )
    )
    commands = {
        "decompose": ["decompose", "--input", str(preds)],
        "selective": ["selective", "--input", str(preds), "--rule", "log", "--task-rule", "zero-one"],
        "ood": ["ood", "--input", str(preds), "--input-ood", str(preds)],
        "active": ["active", "--config", str(active_config), "--seed", "3"],
    }
    for name, argv in commands.items():
        outputs = []
        for attempt in ("one", "two"):
            out_dir = tmp_path / f"{name}_{attempt}"
            assert main(argv + ["--out-dir", str(out_dir)]) == 0
            outputs.append(
                {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            )
        assert outputs[0] == outputs[1], name
    # verify emits a report rather than files; its stdout must match too
    capsys.readouterr()
    assert main(["verify", "--suite", "aulc"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--suite", "aulc"]) == 0
    assert capsys.readouterr().out == first
    report(9, "decompose/selective/ood/active/verify byte-identical across reruns")


def test_10_frozen_fixture_values():
    """The hand-derived decomposition fixtures, re-derived through the
    expectation-form oracle before freezing, hold to 1e-9 on both paths."""
    frozen = {
        ScoringRule.LOG: (
            [[0.9, 0.1], [0.5, 0.5]],
            (0.6108643020548936, 0.5091150769756967, 0.10174922507919693),
        ),
        ScoringRule.BRIER: ([[1.0, 0.0], [0.0, 1.0]], (0.5, 0.0, 0.5)),
        ScoringRule.ZERO_ONE: ([[0.9, 0.1], [0.4, 0.6]], (0.35, 0.25, 0.09999999999999998)),
    }
    for rule, (members, want) in frozen.items():
        sample = SecondOrderSample(members)
        rederived = generic_triple(rule, sample)
        for path in (decompose, generic_triple):
            got = path(rule, sample)
            assert got.total == pytest.approx(want[0], abs=1e-9)
            assert got.aleatoric == pytest.approx(want[1], abs=1e-9)
            assert got.epistemic == pytest.approx(want[2], abs=1e-9)
        assert rederived.total == pytest.approx(want[0], abs=1e-9)
    report(10, "three frozen fixtures agree on both computation paths")
