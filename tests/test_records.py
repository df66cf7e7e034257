import json

import numpy as np
import pytest

import uqscore.measures as measures
import uqscore.records as records_module
from uqscore.errors import (
    DimensionMismatch,
    LabelOutOfRange,
    Malformed,
    MissingLabels,
    NotNormalized,
    SimplexError,
    SimplexViolation,
    UqscoreError,
)
from uqscore.measures import SecondOrderSample, validate_simplex
from uqscore.records import (
    PredictionRecord,
    parse_predictions,
    require_labels,
    uniform_class_count,
    write_predictions,
)


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestParse:
    def test_minimal_record(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_lines(path, ['{"id": "a", "samples": [[0.5, 0.5]]}'])
        records = parse_predictions(path)
        assert len(records) == 1
        rec = records[0]
        assert rec.id == "a" and rec.label is None
        assert rec.sample.m == 1 and rec.sample.k == 2

    def test_order_preserved_and_varying_shapes(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_lines(
            path,
            [
                '{"id": "x", "samples": [[0.5, 0.5], [0.1, 0.9]], "label": 2}',
                '{"id": "y", "samples": [[0.2, 0.3, 0.5]]}',
            ],
        )
        records = parse_predictions(path)
        assert [r.id for r in records] == ["x", "y"]
        assert records[0].sample.m == 2
        assert records[1].sample.k == 3

    def test_simplex_violation_positions(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_lines(
            path,
            [
                '{"id": "ok", "samples": [[0.5, 0.5]]}',
                '{"id": "bad", "samples": [[0.5, 0.5], [0.5, 0.4]]}',
            ],
        )
        with pytest.raises(SimplexViolation) as err:
            parse_predictions(path)
        assert err.value.line == 2 and err.value.row == 2

    def test_renormalize_accepts_unscaled_rows(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_lines(path, ['{"id": "a", "samples": [[2.0, 2.0]]}'])
        with pytest.raises(SimplexViolation):
            parse_predictions(path)
        records = parse_predictions(path, renormalize=True)
        assert records[0].sample.matrix.tolist() == [[0.5, 0.5]]

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '{"samples": [[0.5, 0.5]]}',
            '{"id": "a", "samples": []}',
            '{"id": "a", "samples": [[0.5, 0.5], [0.2, 0.3, 0.5]]}',
            '{"id": "a", "samples": [[0.5, "x"]]}',
            '{"id": "a", "samples": [[true, false]]}',
            '{"id": "a", "samples": [[0.5, 0.5]], "label": 3}',
            '{"id": "a", "samples": [[0.5, 0.5]], "label": 1.5}',
            '{"id": "a", "samples": [[0.5, 0.5]], "extra": 1}',
            '{"id": "a", "samples": [[0.5, 0.5000000010002, -5e-13]]}',  # row passes alone, clipped mean does not
        ],
    )
    def test_malformed_lines(self, tmp_path, line):
        path = tmp_path / "p.jsonl"
        write_lines(path, [line])
        with pytest.raises(Malformed) as err:
            parse_predictions(path)
        assert err.value.line == 1

    @pytest.mark.parametrize(
        "line",
        ['{"id": "a", "samples": [[1' + "0" * 5000 + ', 0]]}', "[" * 100000],
        ids=["5000-digit integer", "deep nesting"],
    )
    def test_lines_past_decoder_limits(self, tmp_path, line):
        path = tmp_path / "p.jsonl"
        write_lines(path, [line])
        with pytest.raises(Malformed) as err:
            parse_predictions(path)
        assert err.value.line == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text("", encoding="utf-8")
        assert parse_predictions(path) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_lines(path, ["", '{"id": "a", "samples": [[0.5, 0.5]]}', ""])
        assert len(parse_predictions(path)) == 1


class TestEncoding:
    def test_bad_byte_names_its_line(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_bytes(b'{"id": "a", "samples": [[0.5, 0.5]]}\n\xff\xfe\n')
        with pytest.raises(Malformed, match=r"line 2: not valid UTF-8 \(byte 0xff at column 1\)") as err:
            parse_predictions(path)
        assert err.value.line == 2

    def test_bad_byte_after_valid_multibyte_text(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_bytes(b'\n{"id": "\xc3\xa9t\xe9", "samples": [[0.5, 0.5]]}\n')
        with pytest.raises(Malformed, match=r"byte 0xe9 at column 11") as err:
            parse_predictions(path)
        assert err.value.line == 2

    def test_utf8_text_newlines_and_blank_lines_unchanged(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_bytes(
            b'{"id": "\xc3\xa9t\xc3\xa9", "samples": [[0.5, 0.5]]}\r\n\r\n  \n'
            b'{"id": "\xe2\x98\x83", "samples": [[0.25, 0.75]], "label": 2}'
        )
        records = parse_predictions(path)
        assert [r.id for r in records] == ["\u00e9t\u00e9", "\u2603"]
        assert records[1].label == 2


class TestRoundTrip:
    def test_bit_for_bit(self, tmp_path, rng):
        records = []
        for i in range(25):
            k = int(rng.integers(2, 6))
            m = int(rng.integers(1, 5))
            matrix = rng.dirichlet(np.ones(k), m)
            label = int(rng.integers(1, k + 1)) if rng.random() < 0.5 else None
            records.append(PredictionRecord(f"r{i}", SecondOrderSample(matrix), label))
        path = tmp_path / "round.jsonl"
        write_predictions(records, path)
        back = parse_predictions(path)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.id == b.id and a.label == b.label
            assert np.array_equal(a.sample.matrix, b.sample.matrix)


class TestHelpers:
    def test_uniform_class_count(self, tmp_path):
        a = PredictionRecord("a", SecondOrderSample([[0.5, 0.5]]))
        b = PredictionRecord("b", SecondOrderSample([[0.2, 0.3, 0.5]]))
        assert uniform_class_count([a]) == 2
        with pytest.raises(DimensionMismatch):
            uniform_class_count([a, b])

    def test_require_labels(self):
        a = PredictionRecord("a", SecondOrderSample([[0.5, 0.5]]), 1)
        b = PredictionRecord("b", SecondOrderSample([[0.5, 0.5]]))
        assert require_labels([a]) == [1]
        with pytest.raises(MissingLabels):
            require_labels([a, b])

    def test_label_validation_on_construction(self):
        with pytest.raises(LabelOutOfRange):
            PredictionRecord("a", SecondOrderSample([[0.5, 0.5]]), 3)


def reference_parse(path, renormalize):
    """The per-row path: each row typed and validated on its own, then the belief built."""
    out = []
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        payload = json.loads(line)
        probs = []
        for i, row in enumerate(payload["samples"], start=1):
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in row):
                raise Malformed(line_no, f"row {i} contains non-numeric entries")
            try:
                probs.append(validate_simplex(row, renormalize=renormalize).probs)
            except SimplexError as exc:
                raise SimplexViolation(line_no, i, str(exc)) from exc
        sample = SecondOrderSample(probs)
        label = payload.get("label")
        if label is not None and (not isinstance(label, int) or isinstance(label, bool)):
            raise Malformed(line_no, f"label {label!r} is not an integer")
        if label is not None and not 1 <= label <= sample.k:
            raise Malformed(line_no, f"label {label} not in 1..{sample.k}")
        out.append((payload["id"], sample.matrix, label))
    return out


def batch_parse(path, renormalize):
    return [(rec.id, rec.sample.matrix, rec.label) for rec in parse_predictions(path, renormalize)]


def outcome(parse, path, renormalize):
    """Either the parsed (id, matrix, label) list or the raised error's identity."""
    try:
        return parse(path, renormalize)
    except UqscoreError as exc:
        return (type(exc), getattr(exc, "line", None), getattr(exc, "row", None), str(exc))


def same_outcome(got, want):
    if isinstance(want, tuple) or isinstance(got, tuple):
        return got == want
    return len(got) == len(want) and all(
        g[0] == w[0] and g[2] == w[2] and g[1].shape == w[1].shape and g[1].tobytes() == w[1].tobytes()
        for g, w in zip(got, want)
    )


#: Entry-level faults planted into one row: (name, function of the row).
ROW_FAULTS = [
    ("negative", lambda row: [-0.1] + row[1:]),
    ("tiny negative", lambda row: row[:-1] + [-5e-13]),
    ("off sum", lambda row: [v * 1.1 for v in row]),
    ("nan", lambda row: [float("nan")] + row[1:]),
    ("inf", lambda row: [float("inf")] + row[1:]),
    ("minus inf", lambda row: row[:-1] + [float("-inf")]),
    ("zero mass", lambda row: [0.0] * len(row)),
    ("all negative", lambda row: [-v - 0.1 for v in row]),
    ("above one", lambda row: [1.5] + row[1:]),
    ("true", lambda row: [True] + row[1:]),
    ("null", lambda row: row[:-1] + [None]),
    ("string", lambda row: ["0.5"] + row[1:]),
    ("nested", lambda row: [[0.5]] + row[1:]),
]
LABEL_FAULTS = [0, -1, "k+1", 1.5, True, "1"]


def fuzz_record(rng, renormalize, k):
    m = int(rng.integers(1, 5))
    rows = rng.dirichlet(np.full(k, 0.5), m)
    rows[rng.random(rows.shape) < 0.15] = 0.0
    rows[rows.sum(axis=1) == 0.0, 0] = 1.0
    rows /= rows.sum(axis=1, keepdims=True)
    if renormalize:
        # 32-bit model outputs: off the simplex by rounding, scale, and clamped noise
        rows = rows.astype(np.float32).astype(np.float64) * rng.uniform(0.5, 2.0, (m, 1))
        rows[(rows == 0.0) & (rng.random(rows.shape) < 0.5)] = -1e-7
    elif k > 100 or rng.random() < 0.3:
        rows = rows.astype(np.float32).astype(np.float64)
        rows /= rows.sum(axis=1, keepdims=True)  # back within the tolerance
    return [row.tolist() for row in rows]


def fuzz_file(rng, path, renormalize, with_faults):
    lines = []
    for n in range(int(rng.integers(1, 6))):
        k = 1000 if rng.random() < 0.1 else int(rng.integers(2, 7))
        rows = fuzz_record(rng, renormalize, k)
        payload = {"id": f"r{n}", "samples": rows}
        if rng.random() < 0.6:
            payload["label"] = int(rng.integers(1, k + 1))
        if with_faults and rng.random() < 0.4:
            # with two faulty rows, the first must be the one reported
            for i in rng.choice(len(rows), size=min(len(rows), int(rng.integers(1, 3))), replace=False):
                rows[i] = ROW_FAULTS[int(rng.integers(len(ROW_FAULTS)))][1](rows[i])
        if with_faults and rng.random() < 0.15:
            fault = LABEL_FAULTS[int(rng.integers(len(LABEL_FAULTS)))]
            payload["label"] = k + 1 if fault == "k+1" else fault
        lines.append(json.dumps(payload))
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestParseOracle:
    @pytest.mark.parametrize("renormalize", [False, True])
    def test_valid_files_match_per_row_reference_bit_for_bit(self, tmp_path, renormalize):
        rng = np.random.default_rng([7, renormalize])
        for trial in range(60):
            path = tmp_path / f"v{trial}.jsonl"
            fuzz_file(rng, path, renormalize, with_faults=False)
            want = outcome(reference_parse, path, renormalize)
            assert not isinstance(want, tuple), want
            assert same_outcome(outcome(batch_parse, path, renormalize), want)

    @pytest.mark.parametrize("renormalize", [False, True])
    def test_planted_faults_match_per_row_reference(self, tmp_path, renormalize):
        rng = np.random.default_rng([8, renormalize])
        faults = 0
        for trial in range(300):
            path = tmp_path / f"f{trial}.jsonl"
            fuzz_file(rng, path, renormalize, with_faults=True)
            want = outcome(reference_parse, path, renormalize)
            faults += isinstance(want, tuple)
            assert same_outcome(outcome(batch_parse, path, renormalize), want), path.read_text()[:300]
        assert faults > 100

    @pytest.mark.parametrize("fault", [name for name, _ in ROW_FAULTS])
    @pytest.mark.parametrize("renormalize", [False, True])
    def test_each_row_fault_in_a_later_row(self, tmp_path, fault, renormalize):
        plant = dict(ROW_FAULTS)[fault]
        path = tmp_path / "p.jsonl"
        rows = [[0.25, 0.25, 0.5], [0.5, 0.5, 0.0], [0.1, 0.2, 0.7]]
        rows[1] = plant(rows[1])
        write_lines(path, [json.dumps({"id": "a", "samples": [[1.0, 0.0, 0.0]]}),
                           json.dumps({"id": "b", "samples": rows, "label": 2})])
        want = outcome(reference_parse, path, renormalize)
        assert same_outcome(outcome(batch_parse, path, renormalize), want)
        if fault in ("nan", "inf", "minus inf"):  # never clamped away, even with --renormalize
            assert want == (SimplexViolation, 2, 2, "line 2, row 2: probabilities must be finite")

    def test_float32_rows_renormalize_like_one_row_at_a_time(self, tmp_path, rng):
        # the (M, K) row sums must equal the sums of each row on its own
        rows = rng.dirichlet(np.full(1000, 0.05), 20).astype(np.float32).astype(np.float64)
        path = tmp_path / "p.jsonl"
        write_lines(path, [json.dumps({"id": "w", "samples": rows.tolist()})])
        matrix = parse_predictions(path, renormalize=True)[0].sample.matrix
        for got, row in zip(matrix, rows):
            want = np.clip(row, 0.0, None)
            assert got.tobytes() == np.clip(want / want.sum(), 0.0, 1.0).tobytes()

    @staticmethod
    def count_checks(monkeypatch):
        def no_row_walk(*args, **kwargs):
            raise AssertionError("a valid record was re-checked row by row")

        calls = []
        check = measures._check_simplex_rows
        monkeypatch.setattr(records_module, "validate_simplex", no_row_walk)
        monkeypatch.setattr(measures, "_check_simplex_rows", lambda rows: calls.append(rows.shape) or check(rows))
        return calls

    def test_valid_file_checks_each_shape_chunk_twice_and_never_row_by_row(self, tmp_path, monkeypatch):
        calls = self.count_checks(monkeypatch)
        rng = np.random.default_rng(3)
        for trial in range(10):
            path = tmp_path / f"p{trial}.jsonl"
            fuzz_file(rng, path, renormalize=True, with_faults=False)
            lines = path.read_text(encoding="utf-8").splitlines()
            path.write_text("\n".join(lines * 3) + "\n", encoding="utf-8")  # repeated shapes share a chunk
            calls.clear()
            shapes = [rec.sample.matrix.shape for rec in parse_predictions(path, renormalize=True)]
            per_chunk = {shape: max(1, measures._CHUNK_VALUES // (shape[0] * shape[1])) for shape in shapes}
            chunks = sum(-(-shapes.count(shape) // size) for shape, size in per_chunk.items())
            assert len(calls) == 2 * chunks  # the stacked (n * M, K) members, then their (n, K) means

    def test_one_shape_is_checked_twice_in_all(self, tmp_path, monkeypatch):
        calls = self.count_checks(monkeypatch)
        rng = np.random.default_rng(4)
        path = tmp_path / "p.jsonl"
        write_lines(path, [json.dumps({"id": f"r{i}", "samples": rng.dirichlet(np.ones(10), 10).tolist()})
                           for i in range(300)])
        assert len(parse_predictions(path)) == 300
        assert calls == [(3000, 10), (300, 10)]

    def test_samples_view_their_chunk_read_only(self, tmp_path, rng):
        path = tmp_path / "p.jsonl"
        write_lines(path, [json.dumps({"id": f"r{i}", "samples": rng.dirichlet(np.ones(3), 4).tolist()})
                           for i in range(5)])
        for rec in parse_predictions(path):
            matrix = rec.sample.matrix
            assert matrix.flags.c_contiguous and not matrix.flags.writeable and matrix.base is not None
            assert np.array_equal(rec.sample.mean.probs, SecondOrderSample(matrix).mean.probs)

    @pytest.mark.parametrize("renormalize", [False, True])
    def test_records_straddling_a_chunk_boundary(self, tmp_path, renormalize):
        # 700 (10, 10) records fill three chunks; a few (2, 3) records sit between them
        rng = np.random.default_rng([9, renormalize])
        per_chunk = measures._CHUNK_VALUES // 100
        lines = []
        for i in range(700):
            m, k = (2, 3) if i % 97 == 0 else (10, 10)
            rows = rng.dirichlet(np.full(k, 0.5), m)
            if renormalize:  # 32-bit model outputs, off the simplex by rounding and scale
                rows = rows.astype(np.float32).astype(np.float64) * rng.uniform(0.5, 2.0, (m, 1))
            lines.append(json.dumps({"id": f"r{i}", "samples": rows.tolist(), "label": 1 + i % k}))
        path = tmp_path / "p.jsonl"
        write_lines(path, lines)
        want = outcome(reference_parse, path, renormalize)
        assert not isinstance(want, tuple) and sum(m.shape == (10, 10) for _, m, _ in want) > 2 * per_chunk
        assert same_outcome(outcome(batch_parse, path, renormalize), want)
        big = [i for i in range(700) if i % 97]
        for at in big[per_chunk - 1 : per_chunk + 2]:  # the last of one chunk, the first two of the next
            bad = lines[:]
            payload = json.loads(bad[at])
            payload["samples"][3][0] = float("nan")  # a fault with and without --renormalize
            bad[at] = json.dumps(payload)
            write_lines(path, bad)
            want = outcome(reference_parse, path, renormalize)
            assert isinstance(want, tuple) and want[1:3] == (at + 1, 4)
            assert outcome(batch_parse, path, renormalize) == want

    def test_clipped_drift_past_tolerance_is_accepted(self, tmp_path):
        # passes the 1e-9 tolerance as read; clipping the tiny negative
        # entry lifts the sum just past it, which only a second check of
        # the clipped copy would see
        rows = [[0.5, 0.5 + 1e-9 + 2e-13, -5e-13], [0.5, 0.5, 0.0]]
        path = tmp_path / "p.jsonl"
        write_lines(path, [json.dumps({"id": "a", "samples": rows})])
        with pytest.raises(NotNormalized):
            SecondOrderSample([validate_simplex(row).probs for row in rows])
        assert parse_predictions(path)[0].sample.matrix[0, 2] == 0.0

    def test_integer_too_large_for_a_float(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_lines(path, ['{"id": "a", "samples": [[0.5, 0.5], [1' + "0" * 400 + ', 0]]}'])
        with pytest.raises(Malformed, match="row 2 holds an integer too large") as err:
            parse_predictions(path)
        assert err.value.line == 1


#: Faults other than a simplex fault, each in a one-row, two-class record.
OTHER_FAULTS = {
    "bad JSON": '{"id": "x", "samples": [[0.5, 0.5]]',
    "label": '{"id": "x", "samples": [[0.5, 0.5]], "label": 3}',
    "non-numeric": '{"id": "x", "samples": [[0.5, "0.5"]]}',
    "huge integer": '{"id": "x", "samples": [[1' + "0" * 400 + ', 0]]}',
}
#: Simplex faults in the second row of a two-row, three-class record.
SIMPLEX_FAULTS = {
    "off sum": '{"id": "s", "samples": [[0.2, 0.3, 0.5], [0.5, 0.4, 0.0]]}',
    "nan": '{"id": "s", "samples": [[0.2, 0.3, 0.5], [NaN, 0.4, 0.6]]}',
}


@pytest.mark.parametrize("other", list(OTHER_FAULTS))
@pytest.mark.parametrize("simplex, renormalize", [("off sum", False), ("nan", False), ("nan", True)])
@pytest.mark.parametrize("simplex_first", [True, False], ids=["simplex first", "simplex later"])
def test_first_fault_in_file_order_across_shape_groups(tmp_path, other, simplex, renormalize, simplex_first):
    good_a = json.dumps({"id": "a", "samples": [[0.2, 0.3, 0.5], [0.1, 0.1, 0.8]], "label": 3})
    good_b = json.dumps({"id": "b", "samples": [[0.5, 0.5]], "label": 1})
    first, later = (SIMPLEX_FAULTS[simplex], OTHER_FAULTS[other])[:: 1 if simplex_first else -1]
    path = tmp_path / "p.jsonl"
    write_lines(path, [good_a, good_b, first, good_b, good_a, later, good_b, good_a])
    # the per-line parse of the first faulty line alone, at the same line number
    alone = tmp_path / "alone.jsonl"
    write_lines(alone, ["", "", first])
    want = outcome(batch_parse, alone, renormalize)
    assert isinstance(want, tuple) and want[1] == 3
    assert outcome(batch_parse, path, renormalize) == want
    # and the later fault is the one raised once the first is mended
    mended = good_a if simplex_first else good_b  # a good line of the faulty line's shape group
    write_lines(path, [good_a, good_b, mended, good_b, good_a, later, good_b])
    write_lines(alone, [""] * 5 + [later])
    assert outcome(batch_parse, path, renormalize) == outcome(batch_parse, alone, renormalize)
