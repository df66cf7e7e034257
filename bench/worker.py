"""Runs one workload's command plan in a closed loop.

One client, one command at a time, all in this process: every command is
a call to ``uqscore.cli.main(argv)``.  A warm-up pass runs first; every
later invocation of a command must reproduce its warm-up outputs byte for
byte.  The value checks of those outputs run afterwards in ``run.py``, so
that the oracles' memory does not count in this process's peak.
Untraced passes give the command timings.  In a traced run, untraced and
traced passes alternate, and the traced ones give the per-layer figures.

    python3 bench/worker.py --root ROOT --plan PLAN --seconds S --trace 0|1 --result OUT

``bench/run.py`` starts this process; the result is a JSON file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


def _import_program(root: Path):
    """Import uqscore from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import uqscore.cli as cli
    except ImportError as exc:
        sys.exit(f"cannot import uqscore from {src}: {exc}")
    if src not in Path(cli.__file__).resolve().parents:
        sys.exit(f"uqscore was imported from {cli.__file__}, not from {src}")
    return cli


def _digest(out_dir: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        size += len(data)
        h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest(), size


_CAL_LINE = json.dumps({"id": "calibration", "samples": [[0.1] * 10] * 10, "label": 1})
#: ``calibrate()`` seconds on the reference host (2-core Xeon at 2.1 GHz,
#: Python 3.11, numpy 2.4, median over quiet and busy periods).
CALIBRATION_REF_S = 0.0085


def calibrate() -> float:
    """Seconds for a fixed mix of JSON decoding, small numpy calls and plain Python.

    The host this benchmark runs on is shared, and its speed drifts by
    tens of percent within a minute.  Each command is timed between two
    calibrations, and its time is scaled by ``CALIBRATION_REF_S`` over
    their mean: the time the command would have taken on the reference
    host at the reference speed.  The calibration is the benchmark's own
    code, so a change to the program does not move it.
    """
    start = perf_counter()
    for _ in range(200):
        rows = json.loads(_CAL_LINE)["samples"]
        arr = np.asarray(rows, dtype=np.float64)
        np.clip(arr, 0.0, 1.0).sum(axis=1)
        total = 0.0
        for row in rows:
            for v in row:
                total += v * v
    return perf_counter() - start


def _count_nodes(tree) -> int:
    """Nodes reachable from a tree's root through ``left`` and ``right``."""
    nodes, stack = 0, [tree]
    while stack:
        node = stack.pop()
        nodes += 1
        for side in ("left", "right"):
            child = getattr(node, side, None)
            if child is not None:
                stack.append(child)
    return nodes


class Runner:
    def __init__(self, cli, plan: dict):
        self.cli = cli
        self.plan = plan
        self.ops = plan["ops"]
        self.invocations: dict[str, int] = defaultdict(int)
        self.failures: dict[str, int] = defaultdict(int)
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.output_bytes: dict[str, int] = {}

    def _fail(self, name: str, problems: list[str]) -> None:
        self.failures[name] += 1
        self.problems.extend(problems)

    def invoke(self, op: dict) -> float:
        """Run one command; returns its wall time.  Checks run after the clock stops."""
        self.invocations[op["name"]] += 1
        rc = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main(op["argv"])
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
        elapsed = perf_counter() - start
        if rc != 0:
            self._fail(op["name"], [f"{op['name']} exited with {rc}"])
            return elapsed
        digest, size = _digest(Path(op["out_dir"]))
        self.output_bytes[op["name"]] = size
        if digest != self.digests.setdefault(op["name"], digest):
            self._fail(op["name"], [f"{op['name']}: output differs from the first run of the same command"])
        return elapsed

    def roundtrip(self, scratch: Path) -> None:
        """``write_predictions(parse_predictions(f))`` must reproduce ``f``."""
        from uqscore.records import parse_predictions, write_predictions

        for path in self.plan["roundtrip"]:
            self.invocations["roundtrip"] += 1
            target = scratch / "roundtrip.jsonl"
            write_predictions(parse_predictions(path), target)
            if target.read_bytes() != Path(path).read_bytes():
                self._fail("roundtrip", [f"write_predictions(parse_predictions({Path(path).name})) changed the bytes"])

    def run_pass(self) -> float:
        """One invocation of every op; returns the summed command time."""
        return sum(self.invoke(op) for op in self.ops)


def measure(runner: Runner, seconds: float) -> dict:
    """Whole passes until ``seconds`` have gone; each command between two calibrations."""
    times, calibration, scaled = defaultdict(list), defaultdict(list), defaultdict(list)
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        for op in runner.ops:
            before = calibrate()
            elapsed = runner.invoke(op)
            speed = (before + calibrate()) / 2
            times[op["name"]].append(elapsed)
            calibration[op["name"]].append(speed)
            scaled[op["name"]].append(elapsed * CALIBRATION_REF_S / speed)
    return {"times": times, "calibration": calibration, "scaled_times": scaled}


def _layer_metrics(spans, offset: int, runner: Runner, scratch: Path) -> dict:
    """Per-layer figures of one traced pass from its spans."""
    import checks
    from uqscore.records import write_predictions

    m = defaultdict(float, dict.fromkeys(LAYER_COUNTS + LAYER_TIMES, 0))
    child_time = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    floor_groups = defaultdict(list)
    for i, span in enumerate(spans, start=offset):
        name, d = span.name, span.duration
        if name.startswith("cli."):
            m[f"{name}.self_s"] += d - child_time[i]
        elif name == "records.parse":
            path, records = span.payload
            m["records.parse_s"] += d
            m["records.parse_records"] += len(records)
            m["records.parse_values"] += sum(r.sample.m * r.sample.k for r in records)
            m["records.decode_floor_s"] += _decode_floor(path)
            target = scratch / "write_s.jsonl"
            t0 = perf_counter()
            write_predictions(records, target)
            m["records.write_s"] += perf_counter() - t0
        elif name == "measures.belief_build":
            m["measures.belief_builds"] += 1
            m["measures.belief_build_s"] += d
        elif name.startswith("measures.decompose."):
            rule = name.rsplit(".", 1)[1]
            m["measures.decompose_calls"] += 1
            m[f"measures.decompose_s.{rule}"] += d
            floor_groups[(rule, span.payload.matrix.shape)].append(span.payload.matrix)
        elif name == "active.fit":
            m["active.fits"] += 1
            m["active.fit_s"] += d
            m["active.tree_nodes"] += sum(_count_nodes(t) for t in span.payload.trees)
        elif name == "active.predict_pool":
            m["active.pool_points"] += span.payload
            m["active.predict_pool_s"] += d
        elif name in _SPAN_TIMES:
            m[_SPAN_TIMES[name]] += d
    for (rule, _), matrices in floor_groups.items():
        stacked = np.stack(matrices)
        t0 = perf_counter()
        checks.reference_triples(checks.ScoringRule(rule), stacked)
        m["measures.decompose_floor_s"] += perf_counter() - t0
    m["cli.output_bytes"] = sum(runner.output_bytes.values())
    return dict(m)


def _decode_floor(path: str) -> float:
    """The benchmark's own read and ``json.loads`` of every line of ``path``."""
    t0 = perf_counter()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                json.loads(line)
    return perf_counter() - t0


_SPAN_TIMES = {
    "selective.run": "selective.run_s",
    "selective.order": "selective.order_s",
    "selective.aulc": "selective.aulc_s",
    "ood.run": "ood.run_s",
    "ood.auroc": "ood.auroc_s",
    "active.acquire": "active.acquire_s",
    "active.eval": "active.eval_s",
}
#: Work counts; each must repeat exactly between passes and runs.
LAYER_COUNTS = [
    "records.parse_records",
    "records.parse_values",
    "measures.belief_builds",
    "measures.decompose_calls",
    "active.fits",
    "active.tree_nodes",
    "active.pool_points",
    "cli.output_bytes",
]
LAYER_TIMES = [
    "records.parse_s",
    "records.decode_floor_s",
    "records.write_s",
    "measures.belief_build_s",
    "measures.decompose_s.log",
    "measures.decompose_s.brier",
    "measures.decompose_s.zero-one",
    "measures.decompose_s.spherical",
    "measures.decompose_floor_s",
    "selective.order_s",
    "selective.aulc_s",
    "selective.run_s",
    "ood.run_s",
    "ood.auroc_s",
    "active.fit_s",
    "active.predict_pool_s",
    "active.acquire_s",
    "active.eval_s",
    "cli.decompose.self_s",
    "cli.selective.self_s",
    "cli.ood.self_s",
    "cli.active.self_s",
]


def measure_traced(runner: Runner, seconds: float, scratch: Path, spans_path: Path) -> dict:
    """Alternate untraced and traced passes; at least two of each."""
    from tracing import Tracer

    tracer = Tracer()
    untraced, traced, per_pass = [], [], []
    start = perf_counter()
    while len(per_pass) < 2 or perf_counter() - start < seconds:
        untraced.append(runner.run_pass())
        offset = len(tracer.spans)
        wall = 0.0
        with tracer:
            for op in runner.ops:
                tracer.run = f"pass{len(per_pass)}/{op['name']}"
                wall += runner.invoke(op)
        traced.append(wall)
        per_pass.append(_layer_metrics(tracer.spans[offset:], offset, runner, scratch))
        for span in tracer.spans[offset:]:
            span.payload = None
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps({"name": span.name, "start": span.start, "end": span.end,
                                 "parent": span.parent, "run": span.run}) + "\n")
    layers = {key: statistics.median(p[key] for p in per_pass) for key in LAYER_TIMES}
    mismatched = [key for key in LAYER_COUNTS if len({p[key] for p in per_pass}) != 1]
    for key in mismatched:
        print(f"count {key} differs between traced passes: {[p[key] for p in per_pass]}", file=sys.stderr)
    layers.update({key: per_pass[0][key] for key in LAYER_COUNTS})
    layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return {"layers": layers, "count_mismatches": mismatched}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--plan", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)
    cli = _import_program(args.root)
    plan = json.loads(args.plan.read_text(encoding="utf-8"))
    scratch = args.result.parent
    runner = Runner(cli, plan)
    runner.run_pass()
    runner.roundtrip(scratch)
    if args.trace:
        result = measure_traced(runner, args.seconds, scratch, args.spans)
    else:
        result = measure(runner, args.seconds)
    result.update(
        invocations=runner.invocations,
        failures=runner.failures,
        problems=runner.problems[:20],
        items={op["name"]: op["items"] for op in runner.ops},
        kinds={op["name"]: op["kind"] for op in runner.ops},
        digest=hashlib.sha256("".join(runner.digests[k] for k in sorted(runner.digests)).encode()).hexdigest()
        if len(runner.digests) == len(runner.ops) else "",
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
