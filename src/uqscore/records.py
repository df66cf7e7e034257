"""Line-delimited JSON prediction files.

Each line is an object ``{"id": str, "samples": [[...], ...], "label": int?}``
holding one instance's M member distributions as an M x K matrix of
probabilities and an optional 1-based class label.  M and K may differ
between records; tasks that need a uniform class count check it
themselves.  Serialization uses Python's shortest-round-trip float
representation, so ``parse(write(records))`` reproduces finite values
bit for bit.

Each record is checked once: here its JSON shape and entry types (bools
are not numbers), then one (M, K) array in :class:`SecondOrderSample`,
then its label in :class:`PredictionRecord`.  Only a failed simplex check
re-checks the rows one by one, to name the first bad row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    LabelOutOfRange,
    Malformed,
    MissingLabels,
    SimplexError,
    SimplexViolation,
)
from .measures import SecondOrderSample, _prepare_rows, validate_simplex

__all__ = ["PredictionRecord", "parse_predictions", "write_predictions"]


@dataclass(frozen=True)
class PredictionRecord:
    """One instance: an id, a second-order sample, and an optional label."""

    id: str
    sample: SecondOrderSample
    label: int | None = None

    def __post_init__(self):
        if self.label is not None:
            if not isinstance(self.label, int) or isinstance(self.label, bool):
                raise LabelOutOfRange(f"label {self.label!r} is not an integer")
            if not 1 <= self.label <= self.sample.k:
                raise LabelOutOfRange(f"label {self.label} not in 1..{self.sample.k}")


def _raise_first_row_fault(line_no: int, rows: list, renormalize: bool) -> None:
    """Re-check ``rows`` one at a time and raise for the first that fails."""
    for i, row in enumerate(rows, start=1):
        try:
            validate_simplex(row, renormalize=renormalize)
        except SimplexError as exc:
            raise SimplexViolation(line_no, i, str(exc)) from exc
        except OverflowError:
            raise Malformed(line_no, f"row {i} holds an integer too large for a float") from None


def _parse_line(line_no: int, payload, renormalize: bool) -> PredictionRecord:
    if not isinstance(payload, dict):
        raise Malformed(line_no, "expected a JSON object")
    unknown = set(payload) - {"id", "samples", "label"}
    if unknown:
        raise Malformed(line_no, f"unknown keys {sorted(unknown)}")
    rid = payload.get("id")
    if not isinstance(rid, str):
        raise Malformed(line_no, "missing or non-string id")
    rows = payload.get("samples")
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise Malformed(line_no, "samples must be a non-empty list of rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise Malformed(line_no, "samples rows have unequal lengths")
    for i, row in enumerate(rows, start=1):
        if not set(map(type, row)) <= {int, float}:  # json.loads also yields bool, str, None, list, dict
            _raise_first_row_fault(line_no, rows[: i - 1], renormalize)
            raise Malformed(line_no, f"row {i} contains non-numeric entries")
    try:
        sample = SecondOrderSample(_prepare_rows(np.array(rows, dtype=np.float64), renormalize))
    except (SimplexError, OverflowError) as exc:
        _raise_first_row_fault(line_no, rows, renormalize)
        # every row passes alone, so the check that failed was the one on the mean
        raise Malformed(line_no, f"the members' mean is off the simplex: {exc}") from exc
    try:
        return PredictionRecord(rid, sample, payload.get("label"))
    except LabelOutOfRange as exc:
        raise Malformed(line_no, str(exc)) from exc


def parse_predictions(path, renormalize: bool = False) -> list[PredictionRecord]:
    """Read a prediction file, preserving record order.

    Raises :class:`Malformed` or :class:`SimplexViolation` with 1-based
    line (and row) positions; blank lines are skipped.  Bytes that are not
    UTF-8 are read as lone surrogates, so the line holding them is named.
    """
    records = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise Malformed(line_no, f"not valid UTF-8 (byte 0x{byte:02x} at column {exc.start + 1})") from None
            try:
                payload = json.loads(line)
            except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
                raise Malformed(line_no, f"invalid JSON ({getattr(exc, 'msg', exc)})") from exc
            records.append(_parse_line(line_no, payload, renormalize))
    return records


def write_predictions(records: Iterable[PredictionRecord], path) -> None:
    """Write records back to line-delimited JSON (the parse inverse)."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            payload = {"id": rec.id, "samples": [list(row) for row in rec.sample.matrix.tolist()]}
            if rec.label is not None:
                payload["label"] = rec.label
            fh.write(json.dumps(payload, separators=(", ", ": ")) + "\n")


def uniform_class_count(records: Sequence[PredictionRecord]) -> int:
    """The shared K of the records, or :class:`DimensionMismatch`."""
    ks = {rec.sample.k for rec in records}
    if len(ks) != 1:
        raise DimensionMismatch(f"records disagree on class count: {sorted(ks)}")
    return ks.pop()


def require_labels(records: Sequence[PredictionRecord]) -> list[int]:
    """All labels, or :class:`MissingLabels` naming the first offender."""
    missing = [rec.id for rec in records if rec.label is None]
    if missing:
        raise MissingLabels(f"records without labels: {missing[:5]}")
    return [rec.label for rec in records]
