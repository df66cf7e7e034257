"""The `uqscore` command-line interface.

Subcommands: ``decompose`` (per-record uncertainty triples), ``selective``
(loss-rejection curve and AULC), ``ood`` (AUROC of two prediction files),
``active`` (synthetic acquisition traces), and ``verify`` (oracle suites).
Flags may be supplied on the command line or in a JSON config file passed
via ``--config``; config values override flags.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 invalid input (any bad input
file or config value).

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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import active as al
from .benchmarks import gap_problem
from .errors import BadConfig, EmptyInput, Malformed, SimplexViolation, UqscoreError
from .measures import COMPONENTS, ScoringRule, _decompose_samples, check_component
from .measures import decompose  # noqa: F401 - unused, but bench/tracing.py wraps it here
from .ood import run_ood
from .records import parse_predictions, require_labels, uniform_class_count
from .selective import run_selective_prediction
from .verify import ALL_SUITES, run_suites

__all__ = ["main", "build_parser", "RunConfig"]

RULE_NAMES = [r.value for r in ScoringRule]


def _fmt_real(x: float) -> str:
    """17-significant-digit JSON number, with +inf as the string "inf"."""
    if math.isinf(x):
        return '"inf"'
    return format(x, ".17g")


@dataclass
class RunConfig:
    """Merged flag and config-file settings for one command."""

    task: str
    input: Path | None = None
    input_ood: Path | None = None
    rules: list[ScoringRule] = field(default_factory=list)
    component: str = "total"
    task_rule: ScoringRule | None = None
    direction: str = "ascending"
    renormalize: bool = False
    seed: int | None = None
    out_dir: Path = Path(".")
    suite: str | None = None
    dataset: dict = field(default_factory=dict)
    learner: dict = field(default_factory=dict)
    strategies: list[str] = field(default_factory=list)
    rounds: int = 10
    batch: int = 5


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


def _merge_config(args: argparse.Namespace) -> dict:
    merged = {k: v for k, v in vars(args).items() if k != "config"}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also bad UTF-8, over-long integers, deep nesting
            raise BadConfig(f"config file {args.config}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
        if not isinstance(overrides, dict):
            raise BadConfig("config file must hold a JSON object")
        unknown = set(overrides) - set(_CONFIG_TYPES)
        if unknown:
            raise BadConfig(f"config file has unknown keys {sorted(unknown)}")
        for key, value in overrides.items():
            if type(value) is not _CONFIG_TYPES[key]:  # not isinstance(): JSON true is no integer
                raise BadConfig(f"config key {key!r} must hold a {_CONFIG_TYPES[key].__name__}, not {json.dumps(value)}")
        if not all(type(s) is str for s in overrides.get("strategies", [])):
            raise BadConfig("config key 'strategies' must be a list of strings")
        merged.update(overrides)
    return merged


def _build_run_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    merged = _merge_config(args)
    task = merged["task"]

    rule_name = merged.pop("rule", None)
    rules: list[ScoringRule] = []
    if rule_name is not None:
        if rule_name == "all":
            if task != "decompose":
                parser.error(f"--rule all is only supported by decompose, not {task}")
            rules = list(ScoringRule)
        else:
            rules = [_parse_rule(rule_name)]

    task_rule = _parse_rule(merged["task_rule"]) if merged.get("task_rule") else None

    cfg = RunConfig(
        task=task,
        input=Path(merged["input"]) if merged.get("input") else None,
        input_ood=Path(merged["input_ood"]) if merged.get("input_ood") else None,
        rules=rules,
        component=merged.get("component") or ("epistemic" if task == "ood" else "total"),
        task_rule=task_rule,
        direction=merged.get("direction") or "ascending",
        renormalize=bool(merged.get("renormalize")),
        seed=merged.get("seed"),
        out_dir=Path(merged.get("out_dir") or "."),
        suite=merged.get("suite"),
        dataset=merged.get("dataset") or {},
        learner=merged.get("learner") or {},
        strategies=merged.get("strategies") or [],
        rounds=merged.get("rounds", 10),
        batch=merged.get("batch", 5),
    )

    if task in ("decompose", "selective", "ood") and cfg.input is None:
        parser.error(f"{task} needs --input")
    if task == "ood" and cfg.input_ood is None:
        parser.error("ood needs --input-ood")
    if task == "active":
        if cfg.seed is None:
            parser.error("active is stochastic and needs --seed")
        if not cfg.dataset:
            parser.error("active needs a dataset section in --config")
        if not cfg.strategies:
            parser.error("active needs a strategies list in --config")
    # flags are limited to valid choices, so a bad value here came from --config
    if cfg.direction not in ("ascending", "descending"):
        raise BadConfig(f"unknown direction {cfg.direction!r}")
    check_component(cfg.component)
    if cfg.seed is not None and cfg.seed < 0:
        raise BadConfig("seed must be >= 0")
    return cfg


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def _load_records(cfg: RunConfig, path: Path):
    try:
        records = parse_predictions(path, renormalize=cfg.renormalize)
    except (Malformed, SimplexViolation) as exc:
        exc.args = (f"{path}: {exc}",)  # ood reads two files; name the bad one
        raise
    if not records:
        raise EmptyInput(f"{path} holds no records")
    return records


def cmd_decompose(cfg: RunConfig) -> int:
    records = _load_records(cfg, cfg.input)
    rules = cfg.rules or list(ScoringRule)
    triples = _decompose_samples(rules, [rec.sample for rec in records]).transpose(2, 0, 1).tolist()
    rule_texts = [f', "rule": "{rule}", "total": ' for rule in rules]
    out_path = cfg.out_dir / "decompose.jsonl"
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


def cmd_selective(cfg: RunConfig) -> int:
    records = _load_records(cfg, cfg.input)
    uniform_class_count(records)
    labels = require_labels(records)
    uncertainty_rule = cfg.rules[0] if cfg.rules else ScoringRule.LOG
    task_rule = cfg.task_rule or uncertainty_rule
    result = run_selective_prediction(
        [(rec.sample, y) for rec, y in zip(records, labels)],
        task_rule=task_rule,
        uncertainty_rule=uncertainty_rule,
        component=cfg.component,
        descending=cfg.direction == "descending",
    )
    curve_path = cfg.out_dir / "selective_curve.csv"
    with open(curve_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["retained_k", "coverage", "mean_loss"])
        for i, mean_loss in enumerate(result.curve, start=1):
            writer.writerow([i, repr(i / result.n), repr(float(mean_loss))])
    summary_path = cfg.out_dir / "selective_summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(
            f'{{"aulc": {_fmt_real(result.aulc)}, "criterion": {json.dumps(result.criterion)}, '
            f'"task_rule": "{task_rule}", "direction": "{cfg.direction}", "n": {result.n}}}\n'
        )
    print(f"AULC {result.aulc:.6g} ({result.criterion}, task loss {task_rule}); wrote {curve_path} and {summary_path}")
    return 0


def cmd_ood(cfg: RunConfig) -> int:
    id_records = _load_records(cfg, cfg.input)
    ood_records = _load_records(cfg, cfg.input_ood)
    uniform_class_count(list(id_records) + list(ood_records))
    rule = cfg.rules[0] if cfg.rules else ScoringRule.LOG
    result = run_ood(
        [rec.sample for rec in id_records],
        [rec.sample for rec in ood_records],
        rule,
        cfg.component,
    )
    out_path = cfg.out_dir / "ood.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(
            f'{{"auroc": {_fmt_real(result.auroc)}, "n_id": {result.n_id}, '
            f'"n_ood": {result.n_ood}, "rule": "{rule}", "component": "{cfg.component}"}}\n'
        )
    print(f"AUROC {result.auroc:.6g} ({rule}:{cfg.component}); wrote {out_path}")
    return 0


def _build_active_problem(cfg: RunConfig):
    dataset = dict(cfg.dataset)
    kind = dataset.pop("kind", None)
    if kind == "epistemic_gap":
        try:
            return gap_problem(seed=cfg.seed, **dataset)
        except TypeError as exc:
            raise BadConfig(f"bad dataset section: {exc}") from exc
    if kind == "blobs":
        n_initial = dataset.pop("n_initial", None)
        n_test = dataset.pop("n_test", None)
        try:
            data = al.make_blobs(
                centers_seed=dataset.pop("centers_seed", cfg.seed),
                noise_seed=dataset.pop("noise_seed", cfg.seed + 1),
                **dataset,
            )
            n_initial = max(data.k, data.n // 10) if n_initial is None else operator.index(n_initial)
            n_test = data.n // 4 if n_test is None else operator.index(n_test)
        except BadConfig:
            raise
        except (TypeError, ValueError) as exc:  # wrong key, type, or seed
            raise BadConfig(f"bad dataset section: {exc}") from exc
        for key, size in (("n_initial", n_initial), ("n_test", n_test)):
            if size < 0:
                raise BadConfig(f"dataset key {key!r} must be >= 0, got {size}")
        if n_initial + n_test >= data.n:
            raise BadConfig("n_initial + n_test must leave room for a pool")
        order = np.random.default_rng([cfg.seed, 7]).permutation(data.n)
        initial = order[:n_initial]
        test = order[n_initial : n_initial + n_test]
        pool = order[n_initial + n_test :]
        return data, (initial, pool, test)
    raise BadConfig(f"unknown dataset kind {kind!r}; expected epistemic_gap or blobs")


def cmd_active(cfg: RunConfig) -> int:
    data, split = _build_active_problem(cfg)
    try:
        learner_cfg = al.LearnerConfig(**cfg.learner)
    except TypeError as exc:
        raise BadConfig(f"bad learner section: {exc}") from exc
    strategies = [al.AcquisitionStrategy.parse(s) for s in cfg.strategies]
    paths = []
    for strategy in strategies:
        trace = al.run_active_learning(
            data, split, learner_cfg, strategy, rounds=cfg.rounds, batch=cfg.batch, seed=cfg.seed
        )
        path = cfg.out_dir / f"active_trace_{strategy.label}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "labeled_count", "test_zero_one_loss"])
            for r, (count, test_loss) in enumerate(zip(trace.labeled_counts, trace.test_losses)):
                writer.writerow([r, int(count), repr(float(test_loss))])
        paths.append(path)
    print(f"wrote {len(paths)} trace files: {', '.join(str(p) for p in paths)}")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    names = [cfg.suite] if cfg.suite else None
    results = run_suites(names)
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

    def add_common(p: argparse.ArgumentParser, default_rule: str | None):
        p.add_argument("--input", help="prediction file (line-delimited JSON)")
        p.add_argument("--rule", choices=RULE_NAMES + ["all"], default=default_rule)
        p.add_argument("--component", choices=list(COMPONENTS), default=None)
        p.add_argument("--renormalize", action="store_true", help="clamp and rescale sample rows")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", dest="out_dir", default=".")
        p.add_argument("--config", help="JSON config file; overrides flags")

    p = sub.add_parser("decompose", help="per-record uncertainty triples")
    add_common(p, default_rule="all")

    p = sub.add_parser("selective", help="loss-rejection curve and AULC")
    add_common(p, default_rule="log")
    p.add_argument("--task-rule", dest="task_rule", choices=RULE_NAMES, default=None)
    p.add_argument("--direction", choices=["ascending", "descending"], default="ascending")

    p = sub.add_parser("ood", help="AUROC between two prediction files")
    add_common(p, default_rule="log")
    p.add_argument("--input-ood", dest="input_ood", help="OoD prediction file")

    p = sub.add_parser("active", help="synthetic active-learning traces")
    add_common(p, default_rule=None)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--batch", type=int, default=5)

    p = sub.add_parser("verify", help="run the oracle suites")
    add_common(p, default_rule=None)
    p.add_argument("--suite", choices=list(ALL_SUITES), default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_run_config(args, parser)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[cfg.task](cfg)
    except (UqscoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
