"""The uqscore benchmark: seeded inputs through the public CLI, checked.

    python3 bench/run.py --workload narrow-files --seed 1 --seconds 20 --trace 0

Workloads are ``narrow-files``, ``wide-files`` and ``active-pool`` (see
``bench/workloads.py``).  The run writes the workload's inputs under
``.bench_out/``, times the set-up of fresh interpreters, then starts one
worker process that runs the workload's commands in a closed loop for
``--seconds`` and checks every output.  With ``--trace 0`` the last line
of standard output is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics.  Both are listed, with
units, in ``BENCHMARK.json``.  A fuller record of the run, with the
machine and input details, goes to ``.bench_out/result-*.json`` and, when
traced, the spans to ``.bench_out/spans-*.jsonl``.

Exit status is 0 when a result was printed (``"correct"`` tells whether
every check passed) and nonzero, with no result, when the program or the
run could not be set up.
"""

from __future__ import annotations

import os

#: Cap BLAS threads (here, before numpy loads, and in every child): one
#: client on a 2-core machine, so one thread keeps runs comparable.
BLAS_THREADS = "1"
BLAS_ENV = {name: BLAS_THREADS for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from worker import CALIBRATION_REF_S, LAYER_COUNTS, calibrate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
#: Fresh interpreters timed for ``setup_s``, and run under ``-X importtime``
#: for ``setup.import.*``, after one untimed interpreter fills the caches.
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
SETUP_MODULES = [
    "uqscore",
    "uqscore.errors",
    "uqscore.measures",
    "uqscore.selective",
    "uqscore.ood",
    "uqscore.active",
    "uqscore.records",
    "uqscore.verify",
    "uqscore.cli",
    "scipy.stats",
    "scipy.special",
]
#: End-to-end throughput: items per second of command time, per command.
RATES = {
    "decompose": "decompose_rps",
    "selective": "selective_rps",
    "ood": "ood_rps",
    "active": "active_rounds_per_s",
}
#: Seconds a worker may take beyond ``--seconds`` before it is killed.
WORKER_SLACK = 120

_SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import uqscore.cli as cli\n"
    "cli.build_parser()\n"
    "print(time.perf_counter() - t, cli.__file__)\n"
)


class BenchError(Exception):
    """The run could not be set up or completed; no result is printed."""


def _child_env() -> dict:
    return dict(os.environ, **BLAS_ENV, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def _python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        done = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} timed out after {timeout} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{' '.join(args)[:80]} exited with {done.returncode}:\n{done.stderr[-2000:]}")
    return done


def setup_seconds() -> list[tuple[float, float]]:
    """Import ``uqscore.cli`` and build its parser, each in a fresh interpreter.

    Returns (seconds, calibration) pairs; the calibration runs in this
    process just before and after each interpreter (see ``worker.calibrate``).
    """
    times = []
    for _ in range(SETUP_RUNS + 1):
        before = calibrate()
        elapsed, path = _python(["-c", _SETUP_CODE], timeout=60).stdout.split(maxsplit=1)
        speed = (before + calibrate()) / 2
        if not Path(path.strip()).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"uqscore.cli was imported from {path.strip()}, not from src/")
        times.append((float(elapsed), speed))
    return times[1:]


def import_seconds() -> dict[str, float]:
    """Median cumulative import time of each module under ``-X importtime``."""
    _python(["-c", "import uqscore.cli"], timeout=60)
    samples = {name: [] for name in SETUP_MODULES}
    for _ in range(IMPORTTIME_RUNS):
        seen = {}
        for line in _python(["-X", "importtime", "-c", "import uqscore.cli"], timeout=60).stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                seen[fields[2].strip()] = int(fields[1]) / 1e6
        for name in SETUP_MODULES:
            samples[name].append(seen.get(name, 0.0))
    return {f"setup.import.{name}_s": statistics.median(v) for name, v in samples.items()}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def environment(args, run_dir: Path) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": int(BLAS_THREADS),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": {
            p.name: {"bytes": p.stat().st_size, "sha256": _sha256(p)} for p in sorted(run_dir.glob("*.jsonl"))
        },
    }


def end_to_end(res: dict, setup: list[tuple[float, float]]) -> dict[str, float]:
    """Per command kind: items over the summed median time of its invocations.

    Each invocation's wall time, and each set-up time, is first scaled to
    the reference host speed by the calibration run around it (see
    ``worker.calibrate``).
    """
    metrics = {}
    for kind, name in RATES.items():
        ops = [op for op, k in res["kinds"].items() if k == kind]
        scaled = [statistics.median(res["scaled_times"][op]) for op in ops]
        metrics[name] = sum(res["items"][op] for op in ops) / sum(scaled)
    metrics["setup_s"] = statistics.median(t * CALIBRATION_REF_S / speed for t, speed in setup)
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    return metrics


def per_layer(res: dict, imports: dict, state_path: Path) -> dict[str, float]:
    """Layer figures, plus the comparison with an earlier traced run of the same seed."""
    metrics = dict(res["layers"])
    metrics.update(imports)
    counts = {key: metrics[key] for key in LAYER_COUNTS}
    mismatched = set(res["count_mismatches"])
    changed = 0
    if state_path.exists():
        before = json.loads(state_path.read_text(encoding="utf-8"))
        for key, value in counts.items():
            if before["counts"].get(key) != value:
                print(f"count {key} was {before['counts'].get(key)} in an earlier run, now {value}", file=sys.stderr)
                mismatched.add(key)
        changed = int(before["digest"] != res["digest"])
    state_path.write_text(json.dumps({"counts": counts, "digest": res["digest"]}), encoding="utf-8")
    metrics["trace.count_mismatches"] = len(mismatched)
    metrics["cli.output_digest"] = int(res["digest"][:12] or "0", 16)
    metrics["cli.output_digest_changed"] = changed
    return metrics


def _check_outputs(plan: dict, res: dict) -> tuple[int, int, list[str]]:
    """Value checks of the last outputs, which every invocation reproduced.

    An op whose outputs fail a check fails on every invocation; otherwise
    its failures are those the worker saw (exit codes, changed bytes).
    """
    sys.path.insert(0, str(ROOT / "src"))
    import checks

    found = checks.check_plan(plan)
    failed = 0
    for name, count in res["invocations"].items():
        failed += count if found.get(name) else res["failures"].get(name, 0)
    problems = res["problems"] + [p for name in found for p in found[name]]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return sum(res["invocations"].values()), failed, problems[:20]


def _listed_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def run(args) -> dict:
    if not (ROOT / "src" / "uqscore" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'uqscore' / 'cli.py'} is missing")
    units = _listed_units("per_layer" if args.trace else "end_to_end")
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    run_dir = OUT / f"run-{tag}-{os.getpid()}"
    run_dir.mkdir()
    try:
        plan = workloads.build_plan(args.workload, args.seed, run_dir)
        plan_path = run_dir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        env = environment(args, run_dir)
        setup = []
        if args.trace:
            imports = import_seconds()
        else:
            setup = setup_seconds()
        result_path = run_dir / "worker.json"
        spans_path = OUT / f"spans-{tag}.jsonl"
        _python(
            [str(ROOT / "bench" / "worker.py"), "--root", str(ROOT), "--plan", str(plan_path),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--result", str(result_path),
             "--spans", str(spans_path)],
            timeout=args.seconds + WORKER_SLACK,
        )
        res = json.loads(result_path.read_text(encoding="utf-8"))
        attempted, failed, problems = _check_outputs(plan, res)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.trace:
        metrics = per_layer(res, imports, OUT / f"state-{tag}.json")
    else:
        metrics = end_to_end(res, setup)
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = dict(summary, environment=env, problems=problems, setup=setup,
                  **{key: res[key] for key in ("times", "calibration") if key in res})
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="uqscore benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        summary = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, m in summary["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"{summary['attempted']} operations, {summary['failed']} failed")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
