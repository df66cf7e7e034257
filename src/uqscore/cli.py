"""The `uqscore` command-line interface.

Subcommands: ``decompose`` (per-record uncertainty triples), ``selective``
(loss-rejection curve and AULC), ``ood`` (AUROC of two prediction files),
``active`` (synthetic acquisition traces), and ``verify`` (oracle suites).
Each subcommand takes only the flags it reads.  A JSON config file passed
via ``--config`` may set the same settings, keyed by the flag names with
underscores (``active`` also reads ``dataset``, ``learner`` and
``strategies`` from it); config values override flags.  Exit codes:
0 success, 1 verification failure, 2 usage error (a flag the command does
not take, or a setting it needs left out), 3 invalid input (any bad input
file or config key or value).

All commands are deterministic functions of their inputs, flags, and
seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import operator
import sys
from pathlib import Path

import numpy as np

from . import active as al
from .errors import BadConfig, Malformed, UqscoreError
from .measures import COMPONENTS, ScoringRule, _decompose_samples, check_component
from .measures import decompose  # noqa: F401 - unused, but bench/tracing.py wraps it here
from .ood import run_ood
from .records import parse_predictions, require_labels
from .selective import run_selective_prediction
from .verify import ALL_SUITES, run_suites

__all__ = ["main", "build_parser"]

RULE_NAMES = [r.value for r in ScoringRule]


def _fmt_real(x: float) -> str:
    """17-significant-digit JSON number, with +inf as the string "inf"."""
    if math.isinf(x):
        return '"inf"'
    return format(x, ".17g")


#: The JSON type each config-file key must hold.
_CONFIG_TYPES = {
    **dict.fromkeys(("input", "input_ood", "rule", "component", "task_rule", "direction", "out_dir", "suite"), str),
    **dict.fromkeys(("seed", "rounds", "batch"), int),
    "renormalize": bool, "dataset": dict, "learner": dict, "strategies": list,
}


def _parse_rule(name: str) -> ScoringRule:
    try:
        return ScoringRule(name)
    except ValueError:
        raise BadConfig(f"unknown scoring rule {name!r}; expected one of {RULE_NAMES}") from None


def _merge_config(args: argparse.Namespace) -> None:
    """Override the flags in ``args`` with the ``--config`` file's keys."""
    if not args.config:
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, over-long integers, deep nesting
        raise BadConfig(f"config file {args.config}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
    if not isinstance(overrides, dict):
        raise BadConfig("config file must hold a JSON object")
    known = set(vars(args)) - {"task", "config"}
    unknown = set(overrides) - known
    if unknown:
        raise BadConfig(f"config file has unknown keys {sorted(unknown)}; {args.task} reads {sorted(known)}")
    for key, value in overrides.items():
        if type(value) is not _CONFIG_TYPES[key]:  # not isinstance(): JSON true is no integer
            raise BadConfig(f"config key {key!r} must hold a {_CONFIG_TYPES[key].__name__}, not {json.dumps(value)}")
    if not all(type(s) is str for s in overrides.get("strategies", [])):
        raise BadConfig("config key 'strategies' must be a list of strings")
    vars(args).update(overrides)


def _need(args: argparse.Namespace, key: str, what: str):
    """The value of setting ``key``, or a usage error when it is unset or empty."""
    value = getattr(args, key)
    if value in (None, "", {}, []):
        raise argparse.ArgumentError(None, f"{args.task} needs {what}")
    return value


def _out_dir(args: argparse.Namespace) -> Path:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def _load_records(path: str, renormalize: bool):
    try:
        records = parse_predictions(Path(path), renormalize=renormalize)
    except Malformed as exc:
        exc.args = (f"{path}: {exc}",)  # ood reads two files; name the bad one
        raise
    if not records:
        raise UqscoreError(f"{path} holds no records")
    return records


def cmd_decompose(args: argparse.Namespace) -> int:
    path = _need(args, "input", "--input")
    rules = list(ScoringRule) if args.rule == "all" else [_parse_rule(args.rule)]
    records = _load_records(path, args.renormalize)
    triples = _decompose_samples(rules, [rec.sample for rec in records]).transpose(2, 0, 1).tolist()
    rule_texts = [f', "rule": "{rule}", "total": ' for rule in rules]
    out_path = _out_dir(args) / "decompose.jsonl"
    with open(out_path, "w", encoding="utf-8") as fh:
        for rec, rec_triples in zip(records, triples):
            id_text = '{"id": ' + json.dumps(rec.id)
            fh.writelines(
                f'{id_text}{rule_text}{_fmt_real(total)}, "aleatoric": {_fmt_real(aleatoric)}, '
                f'"epistemic": {_fmt_real(epistemic)}}}\n'
                for rule_text, (total, aleatoric, epistemic) in zip(rule_texts, rec_triples)
            )
    print(f"wrote {len(records) * len(rules)} lines to {out_path}")
    return 0


def cmd_selective(args: argparse.Namespace) -> int:
    path = _need(args, "input", "--input")
    uncertainty_rule = _parse_rule(args.rule)
    task_rule = _parse_rule(args.task_rule) if args.task_rule else uncertainty_rule
    component = check_component(args.component)
    if args.direction not in ("ascending", "descending"):
        raise BadConfig(f"unknown direction {args.direction!r}")
    records = _load_records(path, args.renormalize)
    labels = require_labels(records)
    result = run_selective_prediction(
        [(rec.sample, y) for rec, y in zip(records, labels)],
        task_rule=task_rule,
        uncertainty_rule=uncertainty_rule,
        component=component,
        descending=args.direction == "descending",
    )
    out_dir = _out_dir(args)
    curve_path = out_dir / "selective_curve.csv"
    with open(curve_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["retained_k", "coverage", "mean_loss"])
        for i, mean_loss in enumerate(result.curve, start=1):
            writer.writerow([i, repr(i / result.n), repr(float(mean_loss))])
    summary_path = out_dir / "selective_summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(
            f'{{"aulc": {_fmt_real(result.aulc)}, "criterion": {json.dumps(result.criterion)}, '
            f'"task_rule": "{task_rule}", "direction": "{args.direction}", "n": {result.n}}}\n'
        )
    print(f"AULC {result.aulc:.6g} ({result.criterion}, task loss {task_rule}); wrote {curve_path} and {summary_path}")
    return 0


def cmd_ood(args: argparse.Namespace) -> int:
    id_path = _need(args, "input", "--input")
    ood_path = _need(args, "input_ood", "--input-ood")
    rule = _parse_rule(args.rule)
    component = check_component(args.component)
    id_records = _load_records(id_path, args.renormalize)
    ood_records = _load_records(ood_path, args.renormalize)
    result = run_ood(
        [rec.sample for rec in id_records],
        [rec.sample for rec in ood_records],
        rule,
        component,
    )
    out_path = _out_dir(args) / "ood.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(
            f'{{"auroc": {_fmt_real(result.auroc)}, "n_id": {result.n_id}, '
            f'"n_ood": {result.n_ood}, "rule": "{rule}", "component": "{component}"}}\n'
        )
    print(f"AUROC {result.auroc:.6g} ({rule}:{component}); wrote {out_path}")
    return 0


def _build_active_problem(dataset: dict, seed: int):
    dataset = dict(dataset)
    kind = dataset.pop("kind", None)
    if kind not in ("epistemic_gap", "blobs"):
        raise BadConfig(f"unknown dataset kind {kind!r}; expected epistemic_gap or blobs")
    numbers = ("n_labeled_region", "n_gap_region") if kind == "epistemic_gap" else (
        "k", "n_per_class", "d", "spread", "centers_seed", "noise_seed", "centers", "n_initial", "n_test")
    for key in numbers:  # Python reads JSON true as 1; other keys fail as unexpected below
        for value in (values := [dataset.get(key)]):  # the value, then each item of its lists, appended as met
            if isinstance(value, bool):
                raise BadConfig(f"dataset key {key!r} must hold numbers, not {json.dumps(value)}")
            values.extend(value if isinstance(value, list) else ())
    try:
        if kind == "epistemic_gap":
            return al.make_epistemic_gap(seed=seed, **dataset)
        n_initial = dataset.pop("n_initial", None)
        n_test = dataset.pop("n_test", None)
        data = al.make_blobs(
            centers_seed=dataset.pop("centers_seed", seed),
            noise_seed=dataset.pop("noise_seed", seed + 1),
            **dataset,
        )
        n_initial = max(data.k, data.n // 10) if n_initial is None else operator.index(n_initial)
        n_test = data.n // 4 if n_test is None else operator.index(n_test)
    except BadConfig:
        raise
    except (TypeError, ValueError, MemoryError) as exc:  # wrong key, type, seed or size
        raise BadConfig(f"bad dataset section: {exc}") from exc
    for key, size in (("n_initial", n_initial), ("n_test", n_test)):
        if size < 0:
            raise BadConfig(f"dataset key {key!r} must be >= 0, got {size}")
    if n_initial + n_test >= data.n:
        raise BadConfig("n_initial + n_test must leave room for a pool")
    order = np.random.default_rng([seed, 7]).permutation(data.n)
    initial = order[:n_initial]
    test = order[n_initial : n_initial + n_test]
    pool = order[n_initial + n_test :]
    return data, (initial, pool, test)


def cmd_active(args: argparse.Namespace) -> int:
    seed = _need(args, "seed", "--seed (it is stochastic)")
    if seed < 0:
        raise BadConfig("seed must be >= 0")
    dataset = _need(args, "dataset", "a dataset section in --config")
    strategy_names = _need(args, "strategies", "a strategies list in --config")
    data, split = _build_active_problem(dataset, seed)
    try:
        learner_cfg = al.LearnerConfig(**args.learner)
    except TypeError as exc:
        raise BadConfig(f"bad learner section: {exc}") from exc
    strategies = [al.AcquisitionStrategy.parse(s) for s in strategy_names]
    labels = [s.label for s in strategies]
    if len(set(labels)) < len(labels):
        raise BadConfig(f"strategies repeat a label, and each label names one trace file: {labels}")
    paths = []
    for strategy in strategies:
        trace = al.run_active_learning(
            data, split, learner_cfg, strategy, rounds=args.rounds, batch=args.batch, seed=seed
        )
        path = _out_dir(args) / f"active_trace_{strategy.label}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "labeled_count", "test_zero_one_loss"])
            for r, (count, test_loss) in enumerate(zip(trace.labeled_counts, trace.test_losses)):
                writer.writerow([r, int(count), repr(float(test_loss))])
        paths.append(path)
    print(f"wrote {len(paths)} trace files: {', '.join(str(p) for p in paths)}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suites([args.suite] if args.suite else None)
    for result in results:
        print(result.line())
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"FAILED suites: {', '.join(failed)}")
        return 1
    print(f"all {len(results)} suites passed")
    return 0


COMMANDS = {
    "decompose": cmd_decompose,
    "selective": cmd_selective,
    "ood": cmd_ood,
    "active": cmd_active,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uqscore",
        description="Loss-based uncertainty decomposition and its downstream task evaluators.",
    )
    sub = parser.add_subparsers(dest="task", required=True)

    def add_command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON config file; its keys override the flags")
        return p

    def add_file_command(name: str, help: str, rules: list[str], default_rule: str) -> argparse.ArgumentParser:
        p = add_command(name, help)
        p.add_argument("--input", help="prediction file (line-delimited JSON)")
        p.add_argument("--renormalize", action="store_true", help="clamp and rescale sample rows")
        p.add_argument("--rule", choices=rules, default=default_rule)
        p.add_argument("--out-dir", default=".")
        return p

    add_file_command("decompose", "per-record uncertainty triples", RULE_NAMES + ["all"], "all")

    p = add_file_command("selective", "loss-rejection curve and AULC", RULE_NAMES, "log")
    p.add_argument("--component", choices=list(COMPONENTS), default="total")
    p.add_argument("--task-rule", choices=RULE_NAMES, default=None)
    p.add_argument("--direction", choices=["ascending", "descending"], default="ascending")

    p = add_file_command("ood", "AUROC between two prediction files", RULE_NAMES, "log")
    p.add_argument("--input-ood", help="OoD prediction file")
    p.add_argument("--component", choices=list(COMPONENTS), default="epistemic")

    p = add_command("active", "synthetic active-learning traces")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--batch", type=int, default=5)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(dataset={}, learner={}, strategies=[])  # set by the config file only

    p = add_command("verify", "run the oracle suites")
    p.add_argument("--suite", choices=list(ALL_SUITES), default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
        return COMMANDS[args.task](args)
    except argparse.ArgumentError as exc:  # a setting the command needs is unset
        parser.error(str(exc))
    except (UqscoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
