"""Exit-code fuzz of the CLI, run in process.

Whatever the argv, config file or prediction file lines, ``main`` returns or
exits with 0 (success), 2 (usage error) or 3 (invalid input), lets no other
exception escape, and on exit 3 prints exactly one ``error: `` line.  Each
example runs in its own temporary working directory, so every relative path
it names, outputs included, lands there.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uqscore.cli import main

FUZZ = settings(
    derandomize=True, database=None, deadline=None, suppress_health_check=list(HealthCheck), max_examples=100
)

RULES = ["log", "brier", "zero-one", "spherical"]
COMPONENTS = ["total", "aleatoric", "epistemic"]

#: Rows on the simplex, by class count.
SIMPLEX_ROWS = {2: [[0.5, 0.5], [0.9, 0.1], [1, 0], [0.0, 1.0]], 3: [[0.2, 0.3, 0.5], [1, 0, 0], [0.0, 0.25, 0.75]]}

#: A small active-learning config that runs.
ACTIVE_CONFIG = {
    "dataset": {"kind": "blobs", "k": 2, "n_per_class": 6, "n_initial": 2, "n_test": 3},
    "learner": {"n_trees": 2, "depth_cap": 2},
    "strategies": ["random", "log:epistemic"],
}


def run(argv, files):
    """Exit code of ``main(argv)`` in a fresh working directory holding ``files`` (name -> bytes), checked."""
    out, err = io.StringIO(), io.StringIO()
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, data in files.items():
                Path(name).write_bytes(data)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse: usage errors and --help
                    code = exc.code
        finally:
            os.chdir(old)
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    if code == 3:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
    return code


# ---------------------------------------------------------------------------
# Prediction file lines.
# ---------------------------------------------------------------------------


@st.composite
def records(draw, k=None, labeled=None):
    """A valid record as a dict: 1-3 members over K = 2 or 3 classes, with a label or not."""
    k = draw(st.sampled_from([2, 3])) if k is None else k
    rows = draw(st.lists(st.sampled_from(SIMPLEX_ROWS[k]), min_size=1, max_size=3))
    record = {"id": draw(st.text(max_size=4)), "samples": rows}
    if labeled or (labeled is None and draw(st.booleans())):
        record["label"] = draw(st.integers(1, k))
    return record


def dumps(record) -> bytes:
    return json.dumps(record).encode()


WRONG_VALUES = st.sampled_from([None, True, 5, 1.5, "1", [], {}, [1], [[]], [[0.5, "x"]], {"a": 1}])
OFF_SIMPLEX = st.sampled_from(
    [[0.5, 0.4], [-0.1, 1.1], [1.5, -0.5], [math.nan, 1.0], [math.inf, 0.0], [0.0, 0.0], [5e-324, 1.0], [True, 0]]
)
BAD_LABELS = st.sampled_from([0, -1, 4, 10**30, 2**64, 1.0, 1.7, True, "1", None, [1]])


@st.composite
def faulty_lines(draw) -> bytes:
    """One line of some kind: valid, truncated, wrongly typed, off the simplex, badly labelled, not UTF-8,
    deeply nested, blank, or random bytes."""
    record = draw(records())
    kind = draw(st.sampled_from([
        "valid", "truncated", "wrong type", "extra key", "off simplex", "bad label", "bad utf-8", "nested", "blank",
        "bytes",
    ]))
    if kind == "truncated":
        line = dumps(record)
        return line[: draw(st.integers(0, len(line) - 1))]
    if kind == "wrong type":
        record[draw(st.sampled_from(["id", "samples", "label"]))] = draw(WRONG_VALUES)
    elif kind == "extra key":
        record[draw(st.text(max_size=3))] = 1
    elif kind == "off simplex":
        record["samples"] = [[1.0, 0.0], draw(OFF_SIMPLEX)]
    elif kind == "bad label":
        record["label"] = draw(BAD_LABELS)
    elif kind == "bad utf-8":
        line = dumps(record)
        at = draw(st.integers(0, len(line)))
        return line[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80abc"])) + line[at:]
    elif kind == "nested":
        depth = draw(st.integers(1, 5_000))
        shape = draw(st.sampled_from(["closed", "open", "in samples", "objects"]))
        if shape == "closed":
            return b"[" * depth + b"]" * depth
        if shape == "open":
            return b"[" * depth
        if shape == "objects":
            return b'{"a": ' * depth + b"1" + b"}" * depth
        return b'{"id": "a", "samples": ' + b"[" * depth + b"0.5" + b"]" * depth + b"}"
    elif kind == "blank":
        return draw(st.sampled_from([b"", b"  ", b"\t"]))
    elif kind == "bytes":
        return draw(st.binary(max_size=24).filter(lambda b: b"\n" not in b))
    return dumps(record)


def join(lines) -> bytes:
    return b"".join(line + b"\n" for line in lines)


#: A file every command reads: labelled two-class records.
CLEAN_FILES = st.lists(records(k=2, labeled=True).map(dumps), min_size=1, max_size=4).map(join)
FAULTY_FILES = st.lists(faulty_lines(), max_size=4).map(join)


@FUZZ
@given(
    faulty=st.sampled_from(["", "a", "b", "ab"]),
    files=st.tuples(CLEAN_FILES, CLEAN_FILES, FAULTY_FILES, FAULTY_FILES),
    command=st.sampled_from(["decompose", "selective", "ood"]),
    rule=st.sampled_from(RULES),
    component=st.sampled_from(COMPONENTS),
    renormalize=st.booleans(),
)
def test_prediction_files(faulty, files, command, rule, component, renormalize):
    a = files[2 if "a" in faulty else 0]
    b = files[3 if "b" in faulty else 1]
    argv = [command, "--input", "a.jsonl", "--rule", rule, "--out-dir", "out"] + ["--renormalize"] * renormalize
    if command != "decompose":
        argv += ["--component", component]
    if command == "ood":
        argv += ["--input-ood", "b.jsonl"]
    code = run(argv, {"a.jsonl": a, "b.jsonl": b})
    if not faulty:
        assert code == 0, argv


# ---------------------------------------------------------------------------
# Config files.
# ---------------------------------------------------------------------------

SIZES = st.sampled_from([-1, 0, 1, 2, 3, 4, 6, 2**63, 1.5, "3", None, True])
DATASETS = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("epistemic_gap"), "n_labeled_region": SIZES, "n_gap_region": SIZES},
        optional={"seed": SIZES},
    ),
    st.fixed_dictionaries(
        {"kind": st.just("blobs"), "k": SIZES, "n_per_class": SIZES},
        optional={
            "d": SIZES,
            "spread": st.sampled_from([0.0, 0.3, -1.0, math.nan, math.inf, 10**400, "x"]),
            "n_initial": SIZES,
            "n_test": SIZES,
            "centers_seed": SIZES,
            "noise_seed": SIZES,
            "centers": st.sampled_from([[[0, 0], [1, 1]], [[0, 0]], "x", [[math.nan, 0], [1, 1]]]),
            "bogus": st.just(1),
        },
    ),
    st.fixed_dictionaries({"kind": st.sampled_from(["moons", None, 3])}),
    st.just(ACTIVE_CONFIG["dataset"]),
)
LEARNERS = st.fixed_dictionaries(
    {},
    optional={
        "n_trees": st.sampled_from([-1, 0, 1, 2, 3, 1.5, "2", True]),
        "depth_cap": st.sampled_from([-1, 0, 1, 3, 2.0, None]),
        "min_leaf": st.sampled_from([0, 1, 2, 100, 10**400, "1"]),
        "alpha": st.sampled_from([0.0, 1.0, -1.0, 1e308, 10**400, math.nan, math.inf, "1"]),
        "bogus": st.just(1),
    },
)
STRATEGIES = st.lists(
    st.sampled_from(
        ["random", "log:epistemic", "zero-one:total", "brier:aleatoric", "spherical", "log:bogus", "bogus", ""]
    ),
    max_size=3,
)
FILE_NAMES = st.sampled_from(["a.jsonl", "b.jsonl", "missing.jsonl", ".", ""])
ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 2**1100), st.floats(), st.text(max_size=5),  # ints past float range too
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)
#: Each config key with values of its type, or of any type.
CONFIG_KEYS = {
    "input": FILE_NAMES,
    "input_ood": FILE_NAMES,
    "rule": st.sampled_from(RULES + ["all", "bogus"]),
    "component": st.sampled_from(COMPONENTS + ["bogus"]),
    "task_rule": st.sampled_from(RULES + ["bogus"]),
    "direction": st.sampled_from(["ascending", "descending", "sideways"]),
    "out_dir": st.sampled_from(["out", "", "a.jsonl"]),
    "suite": st.sampled_from(["aulc", "bogus"]),
    "seed": st.sampled_from([-1, 0, 1, 10**20]),
    "rounds": st.integers(-1, 3),
    "batch": st.integers(-1, 3),
    "renormalize": st.booleans(),
    "dataset": DATASETS,
    "learner": LEARNERS,
    "strategies": STRATEGIES,
    "bogus": ANY_VALUE,
}
CONFIGS = st.fixed_dictionaries(
    {},
    optional={key: values if key == "bogus" else st.one_of(values, ANY_VALUE) for key, values in CONFIG_KEYS.items()},
)
CONFIG_TEXTS = st.one_of(
    CONFIGS.map(lambda config: json.dumps(config).encode()),
    st.builds(lambda config, cut: json.dumps(config).encode()[:cut], CONFIGS, st.integers(0, 40)),
    st.sampled_from(
        [b"[]", b"1", b"null", b"", b"{", b"\xff{}", b'{"rule": "\xc3"}', b"[" * 5_000, b"[" * 5_000 + b"]" * 5_000]
    ),
)


@FUZZ
@given(
    command=st.sampled_from(["decompose", "selective", "ood", "active"]),
    config=CONFIG_TEXTS,
    active=st.booleans(),
    a=CLEAN_FILES,
)
def test_config_files(command, config, active, a):
    if command == "active" and active:  # a problem that runs, under the fuzzed keys
        merged = {**ACTIVE_CONFIG, "seed": 1, "rounds": 2, "batch": 1}
        with contextlib.suppress(ValueError, RecursionError):  # an unreadable text leaves the base as it is
            loaded = json.loads(config)
            if isinstance(loaded, dict):
                merged.update(loaded)
        config = json.dumps(merged).encode()
    inputs = [] if command == "active" else ["--input", "a.jsonl"]
    inputs += ["--input-ood", "b.jsonl"] if command == "ood" else []
    argv = [command, "--config", "cfg.json", *inputs]
    run(argv, {"cfg.json": config, "a.jsonl": a, "b.jsonl": a})


# ---------------------------------------------------------------------------
# Argument vectors.
# ---------------------------------------------------------------------------

FLAGS = [
    "--input", "--input-ood", "--rule", "--component", "--task-rule", "--direction", "--renormalize", "--out-dir",
    "--config", "--seed", "--rounds", "--batch", "--suite", "-h",
]
VALUES = [
    "a.jsonl", "b.jsonl", "missing.jsonl", "cfg.json", ".", "all", "bogus", "ascending", "-1", "0", "2", "x", "", "--",
] + RULES + COMPONENTS


@FUZZ
@given(
    command=st.sampled_from(["decompose", "selective", "ood", "active", "bogus"]),
    tokens=st.lists(st.sampled_from(FLAGS + VALUES), max_size=8),
    a=CLEAN_FILES,
    b=st.one_of(CLEAN_FILES, FAULTY_FILES),
)
def test_argument_vectors(command, tokens, a, b):
    files = {"a.jsonl": a, "b.jsonl": b, "cfg.json": json.dumps(ACTIVE_CONFIG).encode()}
    run([command, *tokens], files)
