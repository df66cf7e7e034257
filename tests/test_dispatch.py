"""The byte contract across numpy's SIMD dispatch levels: every command writes the same bytes at each level.

The inputs are written once, in this process, so their draws cannot vary with the setting.  Each setting
then runs the commands in a fresh interpreter with ``NPY_DISABLE_CPU_FEATURES`` set: first with nothing
disabled, then with every dispatch level above X86_V3 disabled, then with X86_V3 as well.  Only levels
this numpy dispatches to and this CPU has are disabled; the others are printed as untested.

A log whose bits follow the dispatch level shows up in the log entropy only where it changes the rounding of
a sum: numpy's log loops differ mostly for inputs just below 1, whose ``t log t`` terms are tiny next to the
others.  So one file holds K = 2 records whose entries lie within 1e-2 of 1 (closer, within a few ulps, the
loops agree), where a planted ``np.log`` in the log entropy changes some total in the output.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__ as DISPATCH, __cpu_features__ as HAS
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__ as DISPATCH, __cpu_features__ as HAS

SRC = Path(__file__).resolve().parent.parent / "src"

#: The levels each setting disables, when this numpy dispatches to them and this CPU has them.
SETTINGS = (("AVX512_SPR", "AVX512_ICL", "X86_V4"), ("AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3"))

RULES = ("log", "brier", "zero-one", "spherical")

#: One interpreter runs every command; the exit status is the first nonzero exit code.
CHILD = (
    "import json, sys; from uqscore.cli import main\n"
    "sys.exit(next(filter(None, map(main, json.loads(sys.argv[1]))), 0))"
)


def write_inputs(tmp_path):
    rng = np.random.default_rng(20)
    files = {}
    # most members lie close to their mean, as an ensemble's do, so the divergences sum terms near log(1); a
    # SIMD log that rounds one of those in a few hundred differently changes about one epistemic value in a hundred
    for name, n, labeled in (("id", 600, True), ("ood", 300, False)):
        files[name] = tmp_path / f"{name}.jsonl"
        with open(files[name], "w", encoding="utf-8") as fh:
            for i in range(n):
                alpha = np.full(10, 0.4) if i % 5 == 0 else 50.0 * rng.dirichlet(np.ones(10))
                record = {"id": f"{name}{i}", "samples": rng.dirichlet(alpha, (1, 4, 8, 12)[i % 4]).tolist()}
                if labeled:
                    record["label"] = int(rng.integers(1, 11))
                fh.write(json.dumps(record) + "\n")
    files["binary"] = tmp_path / "binary.jsonl"
    with open(files["binary"], "w", encoding="utf-8") as fh:
        for i in range(400):
            top = 1.0 - 1e-2 * rng.random((1, 3, 6)[i % 3])
            samples = np.stack([top, 1.0 - top], axis=1)[:, rng.permutation(2)]
            fh.write(json.dumps({"id": f"binary{i}", "samples": samples.tolist()}) + "\n")
    files["active"] = tmp_path / "active.json"
    files["active"].write_text(json.dumps({
        "dataset": {"kind": "blobs", "k": 3, "n_per_class": 20, "spread": 0.6},
        "learner": {"n_trees": 6, "depth_cap": 3},
        "strategies": ["random", *(f"{rule}:epistemic" for rule in RULES)],
        "rounds": 2,
        "batch": 3,
    }))
    return files


def commands(files, out):
    ind, ood = str(files["id"]), str(files["ood"])
    argvs = [["decompose", "--input", ind, "--rule", "all", "--out-dir", f"{out}/decompose"]]
    argvs.append(["decompose", "--input", str(files["binary"]), "--rule", "log", "--out-dir", f"{out}/binary"])
    for rule in RULES:
        argvs.append(["selective", "--input", ind, "--rule", rule, "--component", "epistemic"])
        argvs[-1] += ["--out-dir", f"{out}/selective-{rule}"]
    argvs += [["ood", "--input", ind, "--input-ood", ood, "--out-dir", f"{out}/ood"]]
    argvs += [["active", "--config", str(files["active"]), "--seed", "4", "--out-dir", f"{out}/active"]]
    return argvs


def outputs(out):
    return {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}


def test_outputs_do_not_depend_on_the_dispatch_level(tmp_path):
    files = write_inputs(tmp_path)
    runs, untested = [()], []
    for levels in SETTINGS:
        off = tuple(level for level in levels if level in DISPATCH and HAS.get(level))
        untested += [level for level in levels if level not in off and level not in untested]
        if off not in runs:
            runs.append(off)
    print(f"dispatch levels {list(DISPATCH)}; untested: {untested or 'none'}", file=sys.stderr)
    results = {}
    for off in runs:
        env = {key: value for key, value in os.environ.items() if key != "NPY_DISABLE_CPU_FEATURES"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        if off:
            env["NPY_DISABLE_CPU_FEATURES"] = " ".join(off)
        out = tmp_path / ("-".join(off) or "none")
        done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands(files, out))], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (off, done.stderr)
        results[off] = outputs(out)
    assert len(results[()]) == 2 + 2 * len(RULES) + 1 + (1 + len(RULES))  # the active traces: random and each rule
    for off, got in results.items():
        assert got == results[()], f"outputs differ with {' '.join(off)} disabled"
