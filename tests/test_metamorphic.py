"""Metamorphic relations of the file commands: what must not change the output bytes, and what must permute them.

* The chunk size of the batched paths (``measures._CHUNK_VALUES``) decides only how records are stacked, so at
  1 (every record alone), 7, the default 2**15 and 2**20 (every shape in one chunk) ``decompose --rule all``,
  ``selective`` under each rule and ``ood`` write the same bytes.
* Permuting a file's records permutes the records' lines of ``decompose.jsonl`` the same way.
* Planting copies of points in an active-learning pool gives each copy its original's scores, bit for bit, on
  both sides of the distinct-belief floor (``measures._DISTINCT_MIN_VALUES``) and of the class count below which
  divergences sum class-major (``measures._PAIRWISE_MIN``).

The files mix member counts, and the decompose file mixes class counts too, so records of several shapes
interleave and share chunks.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import uqscore.measures as measures
from uqscore.active import LearnerConfig, fit, make_blobs, predict_pool
from uqscore.cli import main
from uqscore.verify import random_belief

RULES = [str(rule) for rule in measures.ScoringRule]
CHUNK_VALUES = (1, 7, 1 << 15, 1 << 20)


def write_records(path, beliefs, labels=None):
    with open(path, "w", encoding="utf-8") as fh:
        for i, belief in enumerate(beliefs):
            record = {"id": f"{path.stem}{i}", "samples": belief.tolist()}
            if labels is not None:
                record["label"] = int(labels[i])
            fh.write(json.dumps(record) + "\n")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("metamorphic")
    rng = np.random.default_rng(31)
    mixed = [random_belief(rng, k=int(rng.choice([2, 3, 10])), m=int(rng.choice([1, 2, 5, 8]))) for _ in range(150)]
    ind = [random_belief(rng, k=4, m=int(rng.choice([1, 3, 6]))) for _ in range(120)]
    ood = [random_belief(rng, k=4, m=int(rng.choice([2, 6]))) for _ in range(80)]
    paths = {name: tmp / f"{name}.jsonl" for name in ("mixed", "id", "ood")}
    write_records(paths["mixed"], [b.matrix for b in mixed])
    write_records(paths["id"], [b.matrix for b in ind], rng.integers(1, 5, len(ind)))
    write_records(paths["ood"], [b.matrix for b in ood])
    return paths


def run_commands(files, out):
    """Every file command's output bytes, by path under ``out``."""
    argvs = [["decompose", "--input", str(files["mixed"]), "--rule", "all", "--out-dir", str(out / "decompose")]]
    for rule in RULES:
        argvs.append(["selective", "--input", str(files["id"]), "--rule", rule, "--out-dir", str(out / rule)])
    argvs.append(["ood", "--input", str(files["id"]), "--input-ood", str(files["ood"]), "--out-dir", str(out / "ood")])
    for argv in argvs:
        assert main(argv) == 0, argv
    return {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}


def test_chunk_size_does_not_change_the_bytes(files, tmp_path, monkeypatch):
    outputs = {}
    for chunk_values in CHUNK_VALUES:
        monkeypatch.setattr(measures, "_CHUNK_VALUES", chunk_values)
        outputs[chunk_values] = run_commands(files, tmp_path / str(chunk_values))
    assert len(outputs[1]) == 1 + 2 * len(RULES) + 1
    for chunk_values, got in outputs.items():
        assert got == outputs[1], f"outputs differ at _CHUNK_VALUES = {chunk_values}"


def test_permuting_records_permutes_the_decompose_lines(files, tmp_path):
    lines = files["mixed"].read_text(encoding="utf-8").splitlines(keepends=True)
    perm = np.random.default_rng(5).permutation(len(lines))
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("".join(lines[i] for i in perm), encoding="utf-8")
    per_record = []
    for path in (files["mixed"], shuffled):
        out = tmp_path / path.stem
        assert main(["decompose", "--input", str(path), "--rule", "all", "--out-dir", str(out)]) == 0
        written = (out / "decompose.jsonl").read_text(encoding="utf-8").splitlines()
        per_record.append([written[i : i + len(RULES)] for i in range(0, len(written), len(RULES))])
    original, permuted = per_record
    assert len(original) == len(lines) and permuted == [original[i] for i in perm]


@pytest.fixture(scope="module")
def learners():
    """Ten-tree ensembles with K = 4 classes, summed class-major, and K = 10, summed point-major."""
    return {
        k: fit(LearnerConfig(n_trees=10, depth_cap=4), make_blobs(k, 30, spread=0.7, centers_seed=k), seed=k)
        for k in (4, measures._PAIRWISE_MIN + 2)
    }


@pytest.mark.parametrize("k", [4, measures._PAIRWISE_MIN + 2])
@pytest.mark.parametrize("large", [False, True], ids=["row by row", "distinct rows"])
@settings(derandomize=True, database=None, deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), copies=st.integers(1, 40))
def test_duplicate_pool_points_score_as_their_originals(learners, k, large, seed, copies):
    learner = learners[k]
    per_point = learner.n_trees * k  # member values a point adds to the pool
    n = measures._DISTINCT_MIN_VALUES // per_point + 1 if large else 30
    rng = np.random.default_rng(seed)
    points = rng.normal(0.0, 2.0, size=(n, 2))
    source = rng.permutation(np.concatenate([np.arange(n), rng.integers(0, n, size=copies)]))
    pool, planted = predict_pool(learner, points), predict_pool(learner, points[source])
    distinct = measures._distinct_rows(planted.leaf_ids, planted.leaves)[0]
    assert isinstance(distinct, slice) != large  # the side of the floor the planted pool is on
    for rule in measures.ScoringRule:
        want = np.array(measures.decompose(rule, pool))[:, source]
        assert np.array(measures.decompose(rule, planted)).tobytes() == want.tobytes(), rule
