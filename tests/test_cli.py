import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uqscore
import uqscore.measures as measures
from uqscore.cli import build_parser, main
from uqscore.measures import ScoringRule

FIXTURE_LINES = [
    '{"id": "fixture", "samples": [[0.9, 0.1], [0.5, 0.5]], "label": 1}',
    '{"id": "solo", "samples": [[0.8, 0.2]], "label": 2}',
]


def write_predictions_file(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@pytest.fixture
def pred_file(tmp_path):
    path = tmp_path / "preds.jsonl"
    write_predictions_file(path, FIXTURE_LINES)
    return path


def read(path):
    return path.read_bytes()


class TestDecomposeCommand:
    def test_fixture_values_and_fanout(self, tmp_path, pred_file):
        out = tmp_path / "out"
        assert main(["decompose", "--input", str(pred_file), "--out-dir", str(out)]) == 0
        lines = (out / "decompose.jsonl").read_text().splitlines()
        assert len(lines) == 2 * 4  # one line per record per rule
        first = json.loads(lines[0])
        assert first["id"] == "fixture" and first["rule"] == "log"
        assert first["total"] == pytest.approx(0.6108643020548936, abs=1e-9)
        assert first["aleatoric"] == pytest.approx(0.5091150769756967, abs=1e-9)
        assert first["epistemic"] == pytest.approx(0.10174922507919693, abs=1e-9)

    def test_single_member_epistemic_exactly_zero(self, tmp_path, pred_file):
        out = tmp_path / "out"
        main(["decompose", "--input", str(pred_file), "--rule", "brier", "--out-dir", str(out)])
        lines = [json.loads(s) for s in (out / "decompose.jsonl").read_text().splitlines()]
        solo = [l for l in lines if l["id"] == "solo"][0]
        assert solo["epistemic"] == 0

    def test_point_mass_decomposition_stays_finite(self, tmp_path):
        # infinite log losses only arise against zero-probability labels,
        # which contribute nothing to the expectations
        path = tmp_path / "p.jsonl"
        write_predictions_file(path, ['{"id": "point", "samples": [[1.0, 0.0]]}'])
        out = tmp_path / "out"
        main(["decompose", "--input", str(path), "--rule", "log", "--out-dir", str(out)])
        line = json.loads((out / "decompose.jsonl").read_text())
        assert line["total"] == 0.0

    def test_infinity_sentinel_in_selective_summary(self, tmp_path):
        # a realized log loss of +inf (zero predicted probability for the
        # observed label) poisons the AULC, serialized as the string "inf"
        path = tmp_path / "p.jsonl"
        write_predictions_file(path, ['{"id": "a", "samples": [[1.0, 0.0]], "label": 2}'])
        out = tmp_path / "out"
        assert main([
            "selective", "--input", str(path), "--rule", "log", "--out-dir", str(out),
        ]) == 0
        summary = json.loads((out / "selective_summary.json").read_text())
        assert summary["aulc"] == "inf"

    def test_records_end_at_lf_only(self, tmp_path, capsys):
        # a lone CR is JSON whitespace; a file whose records end at CR alone is one line
        path = tmp_path / "p.jsonl"
        path.write_bytes(b'{"id": "a",\r "samples": [[0.5, 0.5]]}\n')
        assert main(["decompose", "--input", str(path), "--rule", "log", "--out-dir", str(tmp_path / "out")]) == 0
        assert json.loads((tmp_path / "out" / "decompose.jsonl").read_text())["id"] == "a"
        path.write_bytes(b'{"id": "a", "samples": [[0.5, 0.5]]}\r{"id": "b", "samples": [[0.5, 0.5]]}\r')
        capsys.readouterr()
        assert main(["decompose", "--input", str(path), "--out-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"error: {path}: line 1: invalid JSON (Extra data)\n"

    def test_empty_input(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text("", encoding="utf-8")
        assert main(["decompose", "--input", str(path), "--out-dir", str(tmp_path)]) == 3

    def test_seventeen_digit_round_trip(self, tmp_path, pred_file):
        out = tmp_path / "out"
        main(["decompose", "--input", str(pred_file), "--rule", "log", "--out-dir", str(out)])
        raw = (out / "decompose.jsonl").read_text().splitlines()[0]
        parsed = json.loads(raw)
        from uqscore.measures import SecondOrderSample, decompose

        want = decompose(ScoringRule.LOG, SecondOrderSample([[0.9, 0.1], [0.5, 0.5]]))
        assert parsed["total"] == want.total.item()  # 17 significant digits round-trip


class TestSelectiveCommand:
    def test_singleton_aulc_is_its_loss(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_predictions_file(path, ['{"id": "a", "samples": [[0.8, 0.2]], "label": 2}'])
        out = tmp_path / "out"
        assert main([
            "selective", "--input", str(path), "--rule", "log",
            "--task-rule", "zero-one", "--out-dir", str(out),
        ]) == 0
        summary = json.loads((out / "selective_summary.json").read_text())
        assert summary["aulc"] == 1.0 and summary["n"] == 1

    def test_direction_flips_curve(self, tmp_path):
        lines = [
            '{"id": "a", "samples": [[0.99, 0.01]], "label": 1}',
            '{"id": "b", "samples": [[0.8, 0.2]], "label": 1}',
            '{"id": "c", "samples": [[0.55, 0.45]], "label": 2}',
        ]
        path = tmp_path / "p.jsonl"
        write_predictions_file(path, lines)
        out_a = tmp_path / "asc"
        out_d = tmp_path / "desc"
        main(["selective", "--input", str(path), "--rule", "zero-one", "--out-dir", str(out_a)])
        main([
            "selective", "--input", str(path), "--rule", "zero-one",
            "--direction", "descending", "--out-dir", str(out_d),
        ])
        asc = (out_a / "selective_curve.csv").read_text().splitlines()[1:]
        desc = (out_d / "selective_curve.csv").read_text().splitlines()[1:]
        asc_first = float(asc[0].split(",")[2])
        desc_first = float(desc[0].split(",")[2])
        assert asc_first == 0.0 and desc_first == 1.0
        asc_aulc = json.loads((out_a / "selective_summary.json").read_text())["aulc"]
        desc_aulc = json.loads((out_d / "selective_summary.json").read_text())["aulc"]
        assert desc_aulc > asc_aulc

    def test_mixed_class_counts(self, tmp_path, capsys):
        path = tmp_path / "p.jsonl"
        write_predictions_file(path, [
            '{"id": "a", "samples": [[0.5, 0.5]], "label": 1}',
            '{"id": "b", "samples": [[0.2, 0.3, 0.5]], "label": 3}',
        ])
        assert main(["selective", "--input", str(path), "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err == "error: samples disagree on class count: [2, 3]\n"

    def test_missing_labels(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_predictions_file(path, ['{"id": "a", "samples": [[0.5, 0.5]]}'])
        assert main(["selective", "--input", str(path), "--out-dir", str(tmp_path)]) == 3


class TestOodCommand:
    def _write(self, path, rows_list):
        lines = [
            json.dumps({"id": f"r{i}", "samples": rows}) for i, rows in enumerate(rows_list)
        ]
        write_predictions_file(path, lines)

    def test_identical_files_give_half(self, tmp_path):
        a = tmp_path / "a.jsonl"
        self._write(a, [[[0.7, 0.3], [0.4, 0.6]], [[0.5, 0.5]]])
        out = tmp_path / "out"
        assert main([
            "ood", "--input", str(a), "--input-ood", str(a),
            "--rule", "log", "--out-dir", str(out),
        ]) == 0
        got = json.loads((out / "ood.json").read_text())
        assert got["auroc"] == 0.5
        assert got["component"] == "epistemic"  # OoD default criterion

    def test_separated_files_give_one(self, tmp_path):
        id_file = tmp_path / "id.jsonl"
        ood_file = tmp_path / "ood.jsonl"
        self._write(id_file, [[[0.8, 0.2]], [[0.3, 0.7]]])  # M=1: zero EU
        self._write(ood_file, [[[0.9, 0.1], [0.2, 0.8]]])
        out = tmp_path / "out"
        main(["ood", "--input", str(id_file), "--input-ood", str(ood_file), "--out-dir", str(out)])
        assert json.loads((out / "ood.json").read_text())["auroc"] == 1.0

    def test_mismatched_class_counts(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        self._write(a, [[[0.5, 0.5]]])
        self._write(b, [[[0.2, 0.3, 0.5]]])
        assert main(["ood", "--input", str(a), "--input-ood", str(b), "--out-dir", str(tmp_path)]) == 3


ACTIVE_CONFIG = {
    "dataset": {"kind": "epistemic_gap", "n_labeled_region": 12, "n_gap_region": 4},
    "learner": {"n_trees": 5, "depth_cap": 4, "min_leaf": 2},
    "strategies": ["random", "zero-one:epistemic"],
    "rounds": 2,
    "batch": 3,
    "seed": 11,
}


class TestActiveCommand:
    def test_trace_files_per_strategy(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(ACTIVE_CONFIG))
        out = tmp_path / "out"
        assert main(["active", "--config", str(config), "--seed", "11", "--out-dir", str(out)]) == 0
        random_trace = (out / "active_trace_random.csv").read_text().splitlines()
        eu_trace = (out / "active_trace_zero-one-epistemic.csv").read_text().splitlines()
        assert random_trace[0] == "round,labeled_count,test_zero_one_loss"
        assert len(random_trace) == 1 + 3 and len(eu_trace) == 1 + 3
        assert random_trace[1].split(",")[1] == "24"

    def test_budget_guard(self, tmp_path):
        bad = dict(ACTIVE_CONFIG, rounds=50, batch=10)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(bad))
        assert main(["active", "--config", str(config), "--seed", "1", "--out-dir", str(tmp_path)]) == 3

    def test_blobs_dataset(self, tmp_path):
        cfg = {
            "dataset": {"kind": "blobs", "k": 2, "n_per_class": 30, "d": 2, "spread": 0.3},
            "learner": {"n_trees": 4, "depth_cap": 3},
            "strategies": ["log:epistemic"],
            "rounds": 1,
            "batch": 2,
            "seed": 5,
        }
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["active", "--config", str(config), "--seed", "5", "--out-dir", str(out)]) == 0
        assert (out / "active_trace_log-epistemic.csv").exists()


BAD_CONFIGS = [
    ("decompose", {"input": 5}),
    ("decompose", {"renormalize": 1}),
    ("decompose", {"rule": "bogus"}),
    ("selective", {"task_rule": 5}),
    ("selective", {"task_rule": "bogus"}),
    ("selective", {"direction": "sideways"}),
    ("selective", {"component": "mutual"}),
    ("selective", {"rule": "all"}),
    ("verify", {"suite": "bogus"}),
    ("verify", {"seed": True}),
    ("active", {"dataset": "abc"}),
    ("active", {"dataset": {"kind": "epistemic_gap", "n_labeled_region": 12}}),
    ("active", {"dataset": {"kind": "moons"}}),
    ("active", {"dataset": {"kind": "blobs", "k": 2, "n_per_class": 20, "n_initial": "x"}}),
    ("active", {"dataset": {"kind": "blobs", "k": 2, "n_per_class": 20, "centers": "x"}}),
    ("active", {"dataset": {"kind": "blobs", "k": 2, "n_per_class": 20, "centers_seed": -1}}),
    ("active", {"dataset": {"kind": "blobs", "k": 2, "n_per_class": 20, "n_initial": -5}}),
    ("active", {"dataset": {"kind": "blobs", "k": 2, "n_per_class": 20, "n_test": -5}}),
    ("active", {"dataset": {"kind": "blobs", "k": 2, "n_per_class": 20, "spread": math.nan}}),
    ("active", {"dataset": {"kind": "blobs", "k": 2, "n_per_class": 20, "spread": math.inf}}),
    ("active", {"dataset": {"kind": "blobs", "k": 2, "n_per_class": 20, "centers": [[0, 0], [math.nan, 1]]}}),
    ("active", {"dataset": {"kind": "blobs", "k": 2, "n_per_class": 20, "n_initial": 20, "n_test": 20}}),
    ("active", {"dataset": {"kind": "blobs", "k": 2, "n_per_class": 20, "n_test": 0}}),
    ("active", {"dataset": {"kind": "blobs", "k": 2, "n_per_class": 10**16}}),
    ("active", {"dataset": {"kind": "blobs", "k": 2, "n_per_class": 20, "d": 10**16}}),
    ("active", {"dataset": {"kind": "epistemic_gap", "n_labeled_region": 10**16, "n_gap_region": 4}}),
    ("active", {"dataset": {"kind": "epistemic_gap", "n_labeled_region": 4, "n_gap_region": 2**63}}),
    ("active", {"dataset": {"kind": "blobs", "k": 2, "n_per_class": 20, "spread": 1e308}}),
    ("active", {"dataset": {"kind": "blobs", "k": 2, "n_per_class": 20, "centers": [[1e308, 0], [-1e308, 0]]}}),
    ("active", {"learner": [5]}),
    ("active", {"learner": {"n_trees": 2.5}}),
    ("active", {"learner": {"n_trees": 1}}),
    ("active", {"learner": {"bogus": 1}}),
    ("active", {"learner": {"n_trees": 10**16}}),
    ("active", {"learner": {"alpha": True}}),
    ("active", {"learner": {"alpha": float("inf")}}),
    ("active", {"strategies": "random"}),
    ("active", {"strategies": [5]}),
    ("active", {"strategies": ["log:bogus"]}),
    ("active", {"strategies": ["bogus"]}),
    ("active", {"strategies": ["log", "log:epistemic"]}),
    ("active", {"rounds": True}),
    ("active", {"rounds": 1.5}),
    ("active", {"rounds": -1}),
    ("active", {"batch": 0}),
    ("active", {"batch": "3"}),
    ("active", {"seed": -1}),
]


class TestBadConfigValues:
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a user would see the warning on stderr
    @pytest.mark.parametrize("task, override", BAD_CONFIGS, ids=[json.dumps(o) for _, o in BAD_CONFIGS])
    def test_exit_3_without_traceback(self, tmp_path, pred_file, capsys, task, override):
        body = dict(ACTIVE_CONFIG) if task == "active" else {}
        body.update(override)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(body))
        argv = [task, "--config", str(config)]
        if task != "verify":
            argv += ["--out-dir", str(tmp_path / "out")]
        if task in ("decompose", "selective"):
            argv += ["--input", str(pred_file)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_overflowing_alpha_is_named(self, tmp_path, capsys):
        # K * alpha overflows to inf, which would zero every leaf row
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(dict(ACTIVE_CONFIG, learner={"alpha": 1e308})))
        assert main(["active", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 3
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n_initial", "n_test"])
    def test_negative_blobs_size_is_named(self, tmp_path, capsys, key):
        body = dict(ACTIVE_CONFIG, dataset={"kind": "blobs", "k": 2, "n_per_class": 20, key: -5})
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(body))
        assert main(["active", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 3
        assert f"'{key}' must be >= 0" in capsys.readouterr().err


#: Each subcommand's flags; a config file may set the same settings (and ``active`` its three sections).
COMMAND_FLAGS = {
    "decompose": {"--input", "--renormalize", "--rule", "--out-dir", "--config"},
    "selective": {"--input", "--renormalize", "--rule", "--out-dir", "--config", "--component", "--task-rule",
                  "--direction"},
    "ood": {"--input", "--input-ood", "--renormalize", "--rule", "--component", "--out-dir", "--config"},
    "active": {"--seed", "--rounds", "--batch", "--out-dir", "--config"},
    "verify": {"--suite", "--config"},
}

#: The flags each subcommand took before, and ignored.
DROPPED_FLAGS = [
    ("decompose", ["--component", "total"]),
    ("decompose", ["--seed", "3"]),
    ("selective", ["--seed", "3"]),
    ("ood", ["--seed", "3"]),
    ("active", ["--input", "p.jsonl"]),
    ("active", ["--rule", "brier"]),
    ("active", ["--component", "epistemic"]),
    ("active", ["--renormalize"]),
    ("verify", ["--input", "p.jsonl"]),
    ("verify", ["--rule", "log"]),
    ("verify", ["--component", "total"]),
    ("verify", ["--renormalize"]),
    ("verify", ["--seed", "3"]),
    ("verify", ["--out-dir", "out"]),
]


class TestCommandSettings:
    def test_each_command_takes_only_its_flags(self):
        parser = build_parser()
        (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(commands) == set(COMMAND_FLAGS)
        for name, sub in commands.items():
            flags = {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
            assert flags == COMMAND_FLAGS[name], name
            config_keys = set(vars(parser.parse_args([name]))) - {"task", "config"}
            extra = {"dataset", "learner", "strategies"} if name == "active" else set()
            assert config_keys == {f[2:].replace("-", "_") for f in flags - {"--config"}} | extra, name

    @pytest.mark.parametrize("task, flag", DROPPED_FLAGS, ids=[f"{t} {f[0]}" for t, f in DROPPED_FLAGS])
    def test_dropped_flag_exits_2(self, capsys, task, flag):
        with pytest.raises(SystemExit) as err:
            main([task, *flag])
        assert err.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "task, key",
        [("decompose", "component"), ("selective", "seed"), ("ood", "direction"), ("active", "input"),
         ("verify", "out_dir"), ("decompose", "task"), ("decompose", "config")],
    )
    def test_key_the_command_does_not_read_exits_3(self, tmp_path, pred_file, capsys, task, key):
        body = dict(ACTIVE_CONFIG) if task == "active" else {}
        body[key] = "x"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(body))
        argv = [task, "--config", str(config)]
        if task in ("decompose", "selective", "ood"):
            argv += ["--input", str(pred_file), "--out-dir", str(tmp_path)]
        assert main(argv + (["--input-ood", str(pred_file)] if task == "ood" else [])) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file has unknown keys [{key!r}]") and "Traceback" not in err


class TestVerifyCommand:
    def test_fresh_build_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4

    def test_suite_filter(self, capsys):
        assert main(["verify", "--suite", "aulc"]) == 0
        out = capsys.readouterr().out
        assert "aulc" in out and "binary-ordering" not in out

    def test_fault_injection_wrong_constant_crashes_suite(self, capsys, monkeypatch):
        # corrupt one closed-form constant through a debug hook: the
        # decomposition stops being additive, the suite fails and is named
        broken = dict(measures._ENTROPY_KERNELS)
        broken[ScoringRule.BRIER] = lambda t: 1.0 - 0.99 * np.square(t).sum(axis=-1)
        monkeypatch.setattr(measures, "_ENTROPY_KERNELS", broken)
        assert main(["verify", "--suite", "decompose"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "decompose" in out

    def test_fault_injection_consistent_swap_fails_on_values(self, capsys, monkeypatch):
        # swapping in another rule's entropy AND divergence keeps every
        # triple additive, so only the expectation-form oracle catches it
        entropy_kernels = dict(measures._ENTROPY_KERNELS)
        divergence_kernels = dict(measures._DIVERGENCE_KERNELS)
        entropy_kernels[ScoringRule.BRIER] = entropy_kernels[ScoringRule.SPHERICAL]
        divergence_kernels[ScoringRule.BRIER] = divergence_kernels[ScoringRule.SPHERICAL]
        monkeypatch.setattr(measures, "_ENTROPY_KERNELS", entropy_kernels)
        monkeypatch.setattr(measures, "_DIVERGENCE_KERNELS", divergence_kernels)
        assert main(["verify", "--suite", "decompose"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "decompose" in out and "crashed" not in out


class TestCliPlumbing:
    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["decompose"])  # missing --input
        assert err.value.code == 2

    def test_unknown_input_file_exit_3(self, tmp_path):
        assert main(["decompose", "--input", str(tmp_path / "nope.jsonl")]) == 3

    @pytest.mark.parametrize("task", ["decompose", "selective", "ood", "active"])
    def test_failed_run_makes_no_out_dir(self, tmp_path, pred_file, capsys, task):
        # the output directory is made right before the first write, so a run that exits 3 makes none
        missing = str(tmp_path / "nonexistent.jsonl")
        unlabeled = tmp_path / "unlabeled.jsonl"
        write_predictions_file(unlabeled, ['{"id": "a", "samples": [[0.5, 0.5]]}'])
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(dict(ACTIVE_CONFIG, dataset={"kind": "moons"})))
        argv = {
            "decompose": ["--input", missing],
            "selective": ["--input", str(unlabeled)],
            "ood": ["--input", str(pred_file), "--input-ood", missing],
            "active": ["--config", str(config), "--seed", "1"],
        }[task]
        assert main([task, *argv, "--out-dir", str(tmp_path / "fresh" / "deep")]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "fresh").exists()

    def test_config_overrides_flags(self, tmp_path, pred_file):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"rule": "brier"}))
        out = tmp_path / "out"
        main([
            "decompose", "--input", str(pred_file), "--rule", "log",
            "--config", str(config), "--out-dir", str(out),
        ])
        lines = [json.loads(s) for s in (out / "decompose.jsonl").read_text().splitlines()]
        assert {l["rule"] for l in lines} == {"brier"}

    def test_rule_all_only_for_decompose(self, pred_file, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["selective", "--input", str(pred_file), "--rule", "all", "--out-dir", str(tmp_path)])
        assert err.value.code == 2

    def test_undecodable_files_exit_3(self, tmp_path, pred_file, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b'{"id": "a", "samples": [[0.5, 0.5]]}\n\xff\xfe\n')
        assert main(["decompose", "--input", str(bad), "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {bad}: line 2: not valid UTF-8")
        assert main(["decompose", "--input", str(pred_file), "--config", str(bad), "--out-dir", str(tmp_path)]) == 3
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["decompose", "selective", "ood"])
    def test_non_additive_kernel_exits_3_without_traceback(self, tmp_path, pred_file, capsys, monkeypatch, task):
        broken = dict(measures._ENTROPY_KERNELS)
        broken[ScoringRule.LOG] = lambda t: 1.0 - np.square(t).sum(axis=-1) + 0.5 * (t[..., 0] > 0.85)
        monkeypatch.setattr(measures, "_ENTROPY_KERNELS", broken)
        argv = [task, "--input", str(pred_file), "--rule", "log", "--out-dir", str(tmp_path / "out")]
        assert main(argv + (["--input-ood", str(pred_file)] if task == "ood" else [])) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: decomposition not additive: ") and "Traceback" not in err

    def test_mean_drift_names_the_line(self, tmp_path, capsys):
        # each row passes alone; the clipped copy's mean sums past the tolerance
        path = tmp_path / "p.jsonl"
        write_predictions_file(path, ['{"id": "a", "samples": [[0.5, 0.5000000010002, -5e-13]]}'])
        assert main(["decompose", "--input", str(path), "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 1: the members' mean is off the simplex")
        assert "1.0000000010002" in err

    def test_import_leaves_out_scipy_stats(self, pred_file, tmp_path):
        # scipy.stats costs about a second of start-up; AUROC ranks in numpy; and scipy.special, about a quarter
        # of a second, is imported by the log rule's forms when they first run, so only a log-rule command pays it
        src = Path(uqscore.__file__).resolve().parent.parent
        code = (
            "import sys, uqscore.cli; uqscore.cli.build_parser(); loaded = lambda: 'scipy.special' in sys.modules; "
            "seen = ['scipy.stats' in sys.modules, loaded()]; "
            "argv = ['decompose', '--input', sys.argv[1], '--out-dir', sys.argv[2], '--rule']; "
            "assert uqscore.cli.main(argv + ['brier']) == 0; seen.append(loaded()); "
            "assert uqscore.cli.main(argv + ['log']) == 0; seen += [loaded(), 'scipy.stats' in sys.modules]; print(*seen)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, str(pred_file), str(tmp_path)],
            cwd=src, capture_output=True, text=True, check=True, timeout=120,
        )
        assert done.stdout.splitlines()[-1].split() == ["False", "False", "False", "True", "False"]

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            (b"\xff\xfe", "line 2: not valid UTF-8 (byte 0xff at column 1)"),
            (b'{"id": "b", "samples": [[0.5, 0.6]]}', "line 2, row 1: entries sum to 1.1, not 1\n"),
            (b'{"id": "b", "samples": [[1.2, -0.2]]}', "line 2, row 1: negative entry -0.2\n"),
        ],
    )
    def test_parse_errors_name_the_bad_input(self, tmp_path, pred_file, capsys, bad_line, message):
        # ood reads two files; either order must say which one is bad
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"id": "a", "samples": [[0.5, 0.5]]}\n' + bad_line + b"\n")
        for first, second in ((pred_file, bad), (bad, pred_file)):
            argv = ["ood", "--input", str(first), "--input-ood", str(second), "--out-dir", str(tmp_path)]
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: {message}") and "Traceback" not in err

    @pytest.mark.parametrize("second_line", [b'{"id": "b", "samples": [[0.5,\n', b""], ids=["then-bad-json", "alone"])
    def test_piped_input_names_the_first_fault(self, tmp_path, second_line):
        # a pipe can be read only once: the first fault in file order must still name its line and row
        src = Path(uqscore.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-m", "uqscore.cli", "decompose", "--input", "/dev/stdin", "--out-dir", str(tmp_path)],
            input=b'{"id": "a", "samples": [[0.5, 0.6]]}\n' + second_line,
            cwd=src, capture_output=True, timeout=120,
        )
        assert done.returncode == 3
        assert done.stderr == b"error: /dev/stdin: line 1, row 1: entries sum to 1.1, not 1\n"

    def test_config_that_is_no_object_exits_3(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("[1]")
        assert main(["verify", "--config", str(config)]) == 3
        assert capsys.readouterr().err == "error: config file must hold a JSON object\n"

    def test_renormalize_flag_path(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_predictions_file(path, ['{"id": "a", "samples": [[2.0, 2.0]]}'])
        assert main(["decompose", "--input", str(path), "--out-dir", str(tmp_path)]) == 3
        assert main(["decompose", "--input", str(path), "--renormalize", "--out-dir", str(tmp_path)]) == 0
