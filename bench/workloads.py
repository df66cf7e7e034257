"""Seeded inputs and the command plan of each benchmark workload.

Every workload runs all four data commands of the CLI (``decompose``,
``selective``, ``ood`` and ``active``), so every end-to-end metric is
measured on every workload.  The workloads differ in which inputs are
large:

* ``narrow-files``: many small beliefs (300 records, M = 10, K = 10).
  Cost is per record: parsing, belief construction and one ``decompose``
  call per record and rule.  ``active`` runs on a small problem.
* ``wide-files``: few wide beliefs (8 records, M = 20, K = 1000) rounded
  to float32 and read with ``--renormalize``.  Cost is per value: JSON
  float decoding and per-value validation.  ``active`` runs on the same
  small problem.
* ``active-pool``: ``active`` on a large pool (4 blobs x 1000 points,
  30 trees, a pool of 2900), where time goes to tree fitting and to the
  beliefs built in memory for every pool point.  The file commands run on
  small narrow files.

The program sees only the files and configs written here.  The same
workload and seed always give the same bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: Belief files: records, members, classes, float32 rounding, centre
#: concentration, and the member-agreement range of the in-distribution
#: and OoD files.  The two agreement ranges overlap, so the epistemic
#: AUROC lies strictly between 0.5 and 1.
_NARROW = dict(n=300, m=10, k=10, float32=False, center_alpha=1.0, floor=0.1)
_SMALL_NARROW = dict(_NARROW, n=200)
_WIDE = dict(n=8, m=20, k=1000, float32=True, center_alpha=0.05, floor=0.05)
_ID_AGREEMENT = (10.0, 100.0)
_OOD_AGREEMENT = (3.0, 30.0)

#: ``uqscore active`` problems.  Each strategy is its own invocation.  The
#: blob centres are fixed, so the seed moves only the noise and the split,
#: and the initial labelled set is large enough that few nodes are pure:
#: the trees grow to about the same size (within 5 %) for every seed.
_SMALL_ACTIVE = dict(
    dataset={"kind": "blobs", "k": 3, "n_per_class": 100, "spread": 0.6, "n_initial": 120, "n_test": 75,
             "centers": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.866]]},
    learner={"n_trees": 10, "depth_cap": 4},
    rounds=4,
    batch=5,
    strategies=["random", "log:epistemic"],
)
_POOL_ACTIVE = dict(
    dataset={"kind": "blobs", "k": 4, "n_per_class": 1000, "spread": 0.6, "n_initial": 100, "n_test": 1000,
             "centers": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]},
    learner={"n_trees": 30, "depth_cap": 6},
    rounds=1,
    batch=20,
    strategies=["random", "log:epistemic", "brier:epistemic", "zero-one:epistemic"],
)

#: workload -> (file prefix, belief files, read with --renormalize, active problem)
_PLANS = {
    "narrow-files": ("narrow", _NARROW, False, _SMALL_ACTIVE),
    "wide-files": ("wide", _WIDE, True, _SMALL_ACTIVE),
    "active-pool": ("narrow", _SMALL_NARROW, False, _POOL_ACTIVE),
}
WORKLOADS = tuple(_PLANS)


def _beliefs(rng, n, m, k, float32, center_alpha, floor, agreement, labelled):
    """(n, m, k) member distributions around per-record centres, plus labels.

    Members are Dirichlet draws with concentration ``centre * s + floor``,
    where the agreement ``s`` is log-uniform over ``agreement``: a larger
    ``s`` gives members that agree more, so less epistemic uncertainty.
    """
    centers = rng.dirichlet(np.full(k, center_alpha), size=n)
    lo, hi = np.log(agreement)
    s = np.exp(rng.uniform(lo, hi, size=n))
    gamma = rng.gamma(centers[:, None, :] * s[:, None, None] + floor, size=(n, m, k))
    samples = gamma / gamma.sum(axis=2, keepdims=True)
    if float32:
        samples = samples.astype(np.float32).astype(np.float64)
    labels = None
    if labelled:
        u = rng.random(n)
        labels = np.minimum((np.cumsum(centers, axis=1) < u[:, None]).sum(axis=1), k - 1) + 1
    return samples, labels


def _write_belief_file(path: Path, prefix: str, samples, labels) -> None:
    """One JSON object per line, in the byte format ``write_predictions`` emits."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, rows in enumerate(samples.tolist()):
            payload = {"id": f"{prefix}-{i}", "samples": rows}
            if labels is not None:
                payload["label"] = int(labels[i])
            fh.write(json.dumps(payload, separators=(", ", ": ")) + "\n")


def _belief_pair(rng, run_dir: Path, prefix: str, spec: dict) -> dict:
    """In-distribution (labelled) and OoD files plus their reference arrays."""
    out = {}
    for role, agreement, labelled in (("id", _ID_AGREEMENT, True), ("ood", _OOD_AGREEMENT, False)):
        samples, labels = _beliefs(rng, agreement=agreement, labelled=labelled, **spec)
        name = f"{prefix}_{role}"
        path = run_dir / f"{name}.jsonl"
        _write_belief_file(path, name, samples, labels)
        ref = run_dir / f"{name}.npz"
        np.savez(ref, samples=samples, labels=labels if labels is not None else np.zeros(0, dtype=np.intp))
        out[role] = {"path": str(path), "ref": str(ref), "id_prefix": name, "n": samples.shape[0]}
    return out


def _file_ops(files: dict, renormalize: bool) -> list[dict]:
    extra = ["--renormalize"] if renormalize else []
    n, n_ood = files["id"]["n"], files["ood"]["n"]
    check = {"renormalize": renormalize, "id": files["id"], "ood": files["ood"]}
    return [
        {
            "name": "decompose",
            "kind": "decompose",
            "argv": ["decompose", "--input", files["id"]["path"], "--rule", "all", *extra],
            "items": n,
            "check": check,
        },
        {
            "name": "selective",
            "kind": "selective",
            "argv": ["selective", "--input", files["id"]["path"], *extra],
            "items": n,
            "check": check,
        },
        {
            "name": "ood",
            "kind": "ood",
            "argv": ["ood", "--input", files["id"]["path"], "--input-ood", files["ood"]["path"], *extra],
            "items": n + n_ood,
            "check": check,
        },
    ]


def _active_ops(spec: dict, seed: int, run_dir: Path) -> list[dict]:
    ops = []
    for strategy in spec["strategies"]:
        label = strategy.replace(":", "-")
        config = run_dir / f"active_{label}.json"
        body = {k: spec[k] for k in ("dataset", "learner", "rounds", "batch")}
        config.write_text(json.dumps(dict(body, strategies=[strategy])), encoding="utf-8")
        ops.append(
            {
                "name": f"active-{label}",
                "kind": "active",
                "argv": ["active", "--config", str(config), "--seed", str(seed)],
                # fit/evaluate rounds: round 0 plus one per acquisition
                "items": spec["rounds"] + 1,
                "check": {
                    "trace": f"active_trace_{label}.csv",
                    "n_initial": spec["dataset"]["n_initial"],
                    "rounds": spec["rounds"],
                    "batch": spec["batch"],
                },
            }
        )
    return ops


def build_plan(workload: str, seed: int, run_dir: Path) -> dict:
    """Write the workload's inputs into ``run_dir`` and return its plan.

    The plan lists the command invocations of one pass, in order; each op
    has its own output directory, which a later pass overwrites.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    prefix, file_spec, renormalize, active_spec = _PLANS[workload]
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    files = _belief_pair(rng, run_dir, prefix, file_spec)
    ops = _file_ops(files, renormalize) + _active_ops(active_spec, seed, run_dir)
    for op in ops:
        op["out_dir"] = str(run_dir / "out" / op["name"])
        op["argv"] += ["--out-dir", op["out_dir"]]
    # Files read without --renormalize must survive a parse/write round trip.
    roundtrip = [] if renormalize else [files["id"]["path"], files["ood"]["path"]]
    return {"workload": workload, "seed": seed, "ops": ops, "roundtrip": roundtrip}
