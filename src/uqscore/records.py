"""Line-delimited JSON prediction files.

Each line is an object ``{"id": str, "samples": [[...], ...], "label": int?}``
holding one instance's M member distributions as an M x K matrix of
probabilities and an optional 1-based class label.  M and K may differ
between records; tasks that need a uniform class count check it
themselves.  Serialization uses Python's shortest-round-trip float
representation, so ``parse(write(records))`` reproduces finite values
bit for bit.

Each line is decoded by orjson, which returns the same float64 bits as
``json.loads`` about five times faster.  ``json.loads`` decodes the line
again, and decides its outcome, when orjson refuses it (``NaN``,
``Infinity``, ``1e400``, integers past float range, lone-surrogate
escapes), when the payload is not an object or its label is present but
not an integer (orjson reads integers past 64 bits as floats), and when
the line fails its shape or type checks (orjson accepts nesting that
``json.loads`` refuses).  A line with more than 4 096 brackets (a record
of M members holds M + 2) goes to ``json.loads`` alone: orjson builds
nested lists recursively and overflows the C stack on deep enough
nesting.  Each line therefore gives the value or the error that
``json.loads`` would.

Each record is checked once: its JSON shape and entry types (bools are
not numbers) as its line is read, its rows in a chunk of equal (M, K)
shapes, then its label.  The file is read once, so pipes work too.  On a
fault, the lines already decoded are checked again one record at a time,
so the first fault in file order is raised, naming its first bad row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np
import orjson

from .errors import LabelOutOfRange, Malformed, SimplexError, UqscoreError
from .measures import SecondOrderSample, _build_samples, _check_label, validate_simplex

__all__ = ["PredictionRecord", "parse_predictions", "write_predictions"]


@dataclass(frozen=True)
class PredictionRecord:
    """One instance: an id, a second-order sample, and an optional label (the one label rule's, kept as an int)."""

    id: str
    sample: SecondOrderSample
    label: int | None = None

    def __post_init__(self):
        if self.label is not None:
            object.__setattr__(self, "label", _check_label(self.label, self.sample.k))


def _raise_first_row_fault(line_no: int, rows: list, renormalize: bool) -> None:
    """Re-check decoded ``rows`` one at a time and raise for the first that fails."""
    for i, row in enumerate(rows, start=1):
        if not set(map(type, row)) <= {int, float}:  # json.loads also yields bool, str, None, list and dict
            raise Malformed(line_no, f"row {i} contains non-numeric entries")
        try:
            validate_simplex(row, renormalize=renormalize)
        except SimplexError as exc:
            raise Malformed(line_no, str(exc), row=i) from exc
        except OverflowError:
            raise Malformed(line_no, f"row {i} holds an integer too large for a float") from None


def _parse_line(line_no: int, payload, renormalize: bool) -> tuple:
    """(line, id, float64 (M, K) rows, label) of a decoded line whose shape and types pass."""
    if not isinstance(payload, dict):
        raise Malformed(line_no, "expected a JSON object")
    if not payload.keys() <= {"id", "samples", "label"}:
        raise Malformed(line_no, f"unknown keys {sorted(set(payload) - {'id', 'samples', 'label'})}")
    rid = payload.get("id")
    if not isinstance(rid, str):
        raise Malformed(line_no, "missing or non-string id")
    rows = payload.get("samples")
    if not isinstance(rows, list) or not rows or set(map(type, rows)) != {list}:
        raise Malformed(line_no, "samples must be a non-empty list of rows")
    if len(set(map(len, rows))) != 1:
        raise Malformed(line_no, "samples rows have unequal lengths")
    m, k = len(rows), len(rows[0])
    try:
        if set(map(type, chain.from_iterable(rows))) <= {int, float}:
            matrix = np.fromiter(chain.from_iterable(rows), np.float64, m * k).reshape(m, k)
            return line_no, rid, matrix, payload.get("label")
    except OverflowError:  # an integer too large for a float
        pass
    _raise_first_row_fault(line_no, rows, renormalize)
    raise AssertionError(f"line {line_no}: a non-numeric row that the row walk passed")


def _build_records(lines: list[tuple], renormalize: bool) -> list[PredictionRecord]:
    """Records of checked lines, their beliefs built once per chunk of equal (M, K) shapes."""
    records = []
    for (line_no, rid, _, label), sample in zip(lines, _build_samples([line[2] for line in lines], renormalize)):
        try:
            records.append(PredictionRecord(rid, sample, label))
        except LabelOutOfRange as exc:
            raise Malformed(line_no, str(exc)) from exc
    return records


def parse_predictions(path, renormalize: bool = False) -> list[PredictionRecord]:
    """Read a prediction file, preserving record order.

    Raises :class:`Malformed` with the 1-based line of the first fault in file order, and its row for a row
    off the simplex; blank lines are skipped.  Lines end at LF only: a CR is JSON whitespace, so CRLF ends
    read as before.  Bytes that are not UTF-8 are read as lone surrogates, so the line holding them is named.
    """
    lines = []
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.isspace():
                    lines.append(_decode_line(line_no, line, renormalize))
        return _build_records(lines, renormalize)
    except (Malformed, SimplexError) as exc:
        fault = exc
    for line in lines:  # every line read, one record at a time: the first fault in file order raises
        try:
            _build_records([line], renormalize)
        except SimplexError as exc:
            _raise_first_row_fault(line[0], line[2].tolist(), renormalize)  # every row passes alone: the mean failed
            raise Malformed(line[0], f"the members' mean is off the simplex: {exc}") from exc
    raise fault


#: Most brackets in a line given to orjson, whose recursive build uses about 64 bytes of C stack per nesting level
#: and crashes the process near 130 000 levels (orjson 3.8.3, 8 MB stack); a valid record nests three deep and
#: holds M + 2 brackets.  A line no longer than this cannot hold more, so only longer lines are counted.
_ORJSON_MAX_BRACKETS = 4096


def _decode_line(line_no: int, line: str, renormalize: bool) -> tuple:
    """:func:`_parse_line` of ``line`` as ``json.loads`` decodes it, decoded by orjson where the two agree."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            byte = ord(line[exc.start]) - 0xDC00
            raise Malformed(line_no, f"not valid UTF-8 (byte 0x{byte:02x} at column {exc.start + 1})") from None
    if len(line) <= _ORJSON_MAX_BRACKETS or line.count("[") + line.count("{") <= _ORJSON_MAX_BRACKETS:
        try:
            payload = orjson.loads(line)
            if type(payload) is dict and type(payload.get("label", 0)) is int:
                return _parse_line(line_no, payload, renormalize)
        except (orjson.JSONDecodeError, Malformed):
            pass  # json.loads decides, and names the fault
    try:
        payload = json.loads(line)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise Malformed(line_no, f"invalid JSON ({getattr(exc, 'msg', exc)})") from exc
    return _parse_line(line_no, payload, renormalize)


def write_predictions(records: Iterable[PredictionRecord], path) -> None:
    """Write records back to line-delimited JSON (the parse inverse)."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            payload = {"id": rec.id, "samples": [list(row) for row in rec.sample.matrix.tolist()]}
            if rec.label is not None:
                payload["label"] = rec.label
            fh.write(json.dumps(payload, separators=(", ", ": ")) + "\n")


def require_labels(records: Sequence[PredictionRecord]) -> list[int]:
    """All labels, or an error naming the first records without one."""
    missing = [rec.id for rec in records if rec.label is None]
    if missing:
        raise UqscoreError(f"records without labels: {missing[:5]}")
    return [rec.label for rec in records]
