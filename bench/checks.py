"""Output checks and the batched numpy reference decomposition.

The reference computes the four closed forms over a whole ``(N, M, K)``
array at once, with numpy only.  It is both the check on every
``decompose.jsonl`` value and the floor that the traced run reports as
``measures.decompose_floor_s``.  Each check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from uqscore.measures import ScoringRule, SecondOrderSample, generic_triple
from uqscore.ood import ScoreSplit, auroc_pairwise
from uqscore.selective import Ordering, aulc_weighted

TOL = 1e-9
RULES = tuple(ScoringRule)
#: Records per file also checked against the expectation-form oracle.
ORACLE_SUBSET = 16


def _xlogx(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0.0, x * np.log(x), 0.0)


def reference_triples(rule: ScoringRule, members: np.ndarray):
    """(total, aleatoric, epistemic) arrays for an (N, M, K) member array."""
    mean = members.mean(axis=1)
    if rule is ScoringRule.LOG:
        total = -_xlogx(mean).sum(axis=1)
        aleatoric = -_xlogx(members).sum(axis=2).mean(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            kl = np.where(members > 0.0, members * np.log(members / mean[:, None, :]), 0.0)
        epistemic = kl.sum(axis=2).mean(axis=1)
    elif rule is ScoringRule.BRIER:
        total = 1.0 - np.square(mean).sum(axis=1)
        aleatoric = (1.0 - np.square(members).sum(axis=2)).mean(axis=1)
        epistemic = np.square(members - mean[:, None, :]).sum(axis=2).mean(axis=1)
    elif rule is ScoringRule.ZERO_ONE:
        total = 1.0 - mean.max(axis=1)
        aleatoric = (1.0 - members.max(axis=2)).mean(axis=1)
        j = mean.argmax(axis=1)
        at_j = np.take_along_axis(members, j[:, None, None], axis=2)[:, :, 0]
        epistemic = (members.max(axis=2) - at_j).mean(axis=1)
    else:
        mean_norm = np.linalg.norm(mean, axis=1)
        member_norm = np.linalg.norm(members, axis=2)
        total = 1.0 - mean_norm
        aleatoric = (1.0 - member_norm).mean(axis=1)
        dot = np.einsum("nmk,nk->nm", members, mean)
        epistemic = (member_norm - dot / mean_norm[:, None]).mean(axis=1)
    return total, aleatoric, epistemic


class Reference:
    """A generated belief file as the program should read it."""

    def __init__(self, spec: dict, renormalize: bool):
        with np.load(spec["ref"]) as data:
            members = data["samples"]
            self.labels = data["labels"]
        if renormalize:
            members = np.clip(members, 0.0, None)
            members = members / members.sum(axis=2, keepdims=True)
        self.members = members
        self.ids = [f"{spec['id_prefix']}-{i}" for i in range(members.shape[0])]
        self._triples = {}

    def triples(self, rule: ScoringRule):
        if rule not in self._triples:
            self._triples[rule] = reference_triples(rule, self.members)
        return self._triples[rule]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def check_decompose(out_dir: Path, ref: Reference, seed: int) -> list[str]:
    lines = (out_dir / "decompose.jsonl").read_text(encoding="utf-8").splitlines()
    n = len(ref.ids)
    if len(lines) != n * len(RULES):
        return [f"decompose wrote {len(lines)} lines, expected {n * len(RULES)}"]
    problems = []
    ref_values = {rule: ref.triples(rule) for rule in RULES}
    parsed = [json.loads(line) for line in lines]
    for i in range(n):
        for r, rule in enumerate(RULES):
            row = parsed[i * len(RULES) + r]
            if row["id"] != ref.ids[i] or row["rule"] != rule.value:
                return [f"decompose line {i * len(RULES) + r + 1} is {row['id']}/{row['rule']}"]
            t, a, e = (float(row[c]) for c in ("total", "aleatoric", "epistemic"))
            want = [float(v[i]) for v in ref_values[rule]]
            if not all(_close(x, y) for x, y in zip((t, a, e), want)):
                problems.append(f"decompose {ref.ids[i]} {rule}: {(t, a, e)} != reference {tuple(want)}")
            if not _close(t, a + e):
                problems.append(f"decompose {ref.ids[i]} {rule}: not additive")
    subset = np.random.default_rng([seed, 11]).choice(n, size=min(ORACLE_SUBSET, n), replace=False)
    for i in subset:
        sample = SecondOrderSample(ref.members[i])
        for r, rule in enumerate(RULES):
            oracle = generic_triple(rule, sample)
            row = parsed[i * len(RULES) + r]
            got = (float(row["total"]), float(row["aleatoric"]), float(row["epistemic"]))
            if not all(_close(x, y) for x, y in zip(got, (oracle.total, oracle.aleatoric, oracle.epistemic))):
                problems.append(f"decompose {ref.ids[i]} {rule}: differs from generic_triple")
    return problems[:5]


def check_selective(out_dir: Path, ref: Reference) -> list[str]:
    """Log-rule total uncertainty ordering scored by the realized log loss."""
    with open(out_dir / "selective_curve.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    summary = json.loads((out_dir / "selective_summary.json").read_text(encoding="utf-8"))
    n = len(ref.ids)
    if rows[0] != ["retained_k", "coverage", "mean_loss"] or len(rows) != n + 1:
        return [f"selective curve has {len(rows) - 1} rows, expected {n}"]
    curve = np.array([float(r[2]) for r in rows[1:]])
    aulc_value = float(summary["aulc"])
    problems = []
    if summary["n"] != n:
        problems.append(f"selective summary n={summary['n']}, expected {n}")
    if not math.isclose(aulc_value, float(curve.mean()), rel_tol=1e-12, abs_tol=1e-15):
        problems.append(f"selective AULC {aulc_value!r} is not the curve mean {curve.mean()!r}")
    mean = ref.members.mean(axis=1)
    losses = -np.log(mean[np.arange(n), ref.labels - 1])
    ordering = Ordering(np.argsort(ref.triples(ScoringRule.LOG)[0], kind="stable"))
    want_curve = np.cumsum(losses[ordering.perm]) / np.arange(1, n + 1)
    if not np.allclose(curve, want_curve, rtol=0.0, atol=TOL):
        problems.append("selective curve differs from the reference ordering")
    weighted = aulc_weighted(losses, ordering)
    if not _close(aulc_value, weighted):
        problems.append(f"selective AULC {aulc_value!r} != aulc_weighted {weighted!r}")
    return problems


def check_ood(out_dir: Path, ref_id: Reference, ref_ood: Reference) -> list[str]:
    """Log-rule epistemic scores; OoD records are the positives."""
    result = json.loads((out_dir / "ood.json").read_text(encoding="utf-8"))
    split = ScoreSplit(ref_id.triples(ScoringRule.LOG)[2], ref_ood.triples(ScoringRule.LOG)[2])
    want = auroc_pairwise(split)
    got = float(result["auroc"])
    problems = []
    if (result["n_id"], result["n_ood"]) != (len(ref_id.ids), len(ref_ood.ids)):
        problems.append(f"ood counts {result['n_id']}/{result['n_ood']} are wrong")
    if not math.isclose(got, want, rel_tol=0.0, abs_tol=1e-12):
        problems.append(f"ood AUROC {got!r} != auroc_pairwise {want!r}")
    if not 0.5 < got < 1.0:
        problems.append(f"ood AUROC {got!r} is not strictly between 0.5 and 1: the inputs do not overlap as designed")
    return problems


def check_active(out_dir: Path, spec: dict) -> list[str]:
    with open(out_dir / spec["trace"], newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["round", "labeled_count", "test_zero_one_loss"] or len(rows) != spec["rounds"] + 2:
        return [f"{spec['trace']} has {len(rows) - 1} rounds, expected {spec['rounds'] + 1}"]
    problems = []
    for r, (round_no, count, loss) in enumerate(rows[1:]):
        if int(round_no) != r or int(count) != spec["n_initial"] + r * spec["batch"]:
            problems.append(f"{spec['trace']} round {r}: labelled count {count}")
        if not 0.0 <= float(loss) <= 1.0:
            problems.append(f"{spec['trace']} round {r}: test loss {loss} outside [0, 1]")
    return problems


def check_plan(plan: dict) -> dict[str, list[str]]:
    """Problems with the outputs each op left behind, by op name."""
    refs = {}

    def ref(spec: dict, renormalize: bool) -> Reference:
        key = (spec["ref"], renormalize)
        if key not in refs:
            refs[key] = Reference(spec, renormalize)
        return refs[key]

    problems = {}
    for op in plan["ops"]:
        out_dir = Path(op["out_dir"])
        check = op["check"]
        try:
            if op["kind"] == "active":
                found = check_active(out_dir, check)
            elif op["kind"] == "decompose":
                found = check_decompose(out_dir, ref(check["id"], check["renormalize"]), plan["seed"])
            elif op["kind"] == "selective":
                found = check_selective(out_dir, ref(check["id"], check["renormalize"]))
            else:
                found = check_ood(
                    out_dir, ref(check["id"], check["renormalize"]), ref(check["ood"], check["renormalize"])
                )
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found = [f"{op['name']}: unreadable output ({exc!r})"]
        problems[op["name"]] = found
    return problems
