"""The benchmark's tracing contract, checked from the test suite.

``bench/tracing.py`` replaces names such as ``uqscore.active.SecondOrderSample``,
``uqscore.active.decompose`` and ``uqscore.active.predict_pool`` with plain
wrapper functions while a traced pass runs, and it takes ``len()`` of what
``predict_pool`` returns.  Code that uses one of those names as a type
(``isinstance``, a classmethod) works untraced and fails only when traced.
Every command must therefore give the same exit code and the same output
bytes with and without the tracer.  ``bench/worker.py`` also counts the
nodes of each fitted learner by walking the roots in ``learner.trees``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from uqscore.active import LearnerConfig, fit, make_blobs
from uqscore.cli import main
from uqscore.records import write_predictions

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_bench("tracing").Tracer


def write_records(path, rng, n, k, label=True):
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            m = 1 if i % 7 == 0 else 6
            payload = {"id": f"r{i}", "samples": rng.dirichlet(np.full(k, 0.7), m).tolist()}
            if label:
                payload["label"] = int(rng.integers(1, k + 1))
            fh.write(json.dumps(payload) + "\n")


def commands(tmp_path):
    rng = np.random.default_rng(5)
    ind, ood, config = tmp_path / "id.jsonl", tmp_path / "ood.jsonl", tmp_path / "active.json"
    write_records(ind, rng, 40, 3)
    write_records(ood, rng, 30, 3, label=False)
    config.write_text(json.dumps({
        "dataset": {"kind": "blobs", "k": 3, "n_per_class": 30, "spread": 0.6},
        "learner": {"n_trees": 6, "depth_cap": 3},
        "strategies": ["random", "log:epistemic"],
        "rounds": 2,
        "batch": 4,
    }))
    return {
        "decompose": ["decompose", "--input", str(ind)],
        "selective": ["selective", "--input", str(ind), "--rule", "brier", "--component", "epistemic"],
        "ood": ["ood", "--input", str(ind), "--input-ood", str(ood), "--rule", "zero-one"],
        "active": ["active", "--config", str(config), "--seed", "3"],
    }


def outputs(out_dir):
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def test_traced_commands_match_untraced(tmp_path, capsys):
    Tracer = load_tracer()
    tracer = Tracer()
    for name, argv in commands(tmp_path).items():
        plain, traced = tmp_path / f"{name}-plain", tmp_path / f"{name}-traced"
        assert main(argv + ["--out-dir", str(plain)]) == 0
        with tracer:
            assert main(argv + ["--out-dir", str(traced)]) == 0, capsys.readouterr().err
        assert outputs(plain) and outputs(plain) == outputs(traced)
    spans = {span.name for span in tracer.spans}
    assert {"records.parse", "selective.order", "ood.run", "active.fit",
            "active.predict_pool", "active.acquire", "cli.active"} <= spans
    # bench/worker.py counts each parsed record's values and writes the records back out
    parsed = [span.payload for span in tracer.spans if span.name == "records.parse"]
    assert len(parsed) == 4
    for i, (path, records) in enumerate(parsed):
        assert records and all(rec.sample.m * rec.sample.k > 0 for rec in records)
        write_predictions(records, tmp_path / f"written-{i}.jsonl")
        assert (tmp_path / f"written-{i}.jsonl").read_bytes() == Path(path).read_bytes()
    pool_sizes = [span.payload for span in tracer.spans if span.name == "active.predict_pool"]
    assert pool_sizes and all(isinstance(size, int) and size > 0 for size in pool_sizes)


def test_worker_counts_every_node_of_a_fitted_learner():
    # the traced benchmark sums bench/worker.py's _count_nodes over the
    # roots in learner.trees; they must reach every node of the model
    count_nodes = load_bench("worker")._count_nodes
    data = make_blobs(3, 25, d=2, spread=0.6, centers_seed=1, noise_seed=2)
    for cfg in (LearnerConfig(n_trees=5, depth_cap=4), LearnerConfig(n_trees=3, depth_cap=0)):
        learner = fit(cfg, data, seed=3)
        assert len(learner.trees) == cfg.n_trees
        assert sum(count_nodes(tree) for tree in learner.trees) == learner.feature.size


def test_traced_active_run_keeps_fitted_trees(tmp_path):
    Tracer = load_tracer()
    tracer = Tracer()
    with tracer:
        assert main(commands(tmp_path)["active"] + ["--out-dir", str(tmp_path / "out")]) == 0
    fits = [span.payload for span in tracer.spans if span.name == "active.fit"]
    assert fits and all(learner.trees and learner.feature.size for learner in fits)
