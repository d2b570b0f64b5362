"""Classical key-value table encoding for the quantum search pipeline.

A database is a phone-book style table, already sorted by key. Keys map to
computational basis indices in input order; value labels map to 1-based rank
codes of their sorted numeric interpretations, so the smallest number gets
code 1. Duplicate numeric values share a code, so a target that matches
them has a multi-solution (degenerate) ground level.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InputError


@dataclass(frozen=True)
class RawEntry:
    """One pre-encoding table row: a key (name) and a value label (number string)."""

    key: str
    value_label: str


@dataclass(frozen=True)
class SearchOutcome:
    """A decoded measurement result: basis index, its key, and the probability."""

    index: int
    key: str
    probability: float


@dataclass(frozen=True)
class EncodedDatabase:
    """Quantum-ready database: one key and one value code per basis index.

    Basis index i of the n-qubit register decodes to ``keys[i]`` and holds
    the code ``values[i]``, from which the problem diagonal is built.
    ``codes`` maps each distinct numeric value label to its code. Built by
    ``encode_database``, which checks the row count, so ``keys`` has 2^n
    entries and ``values`` one per key.
    """

    keys: tuple[str, ...]
    values: tuple[float, ...]
    codes: dict[float, float] = field(repr=False)

    @property
    def n_qubits(self) -> int:
        return len(self.keys).bit_length() - 1


def _parse_numeric_label(label: str) -> float:
    try:
        value = float(label)
    except ValueError:
        raise InputError(f"value label {label!r} is not a decimal integer or real") from None
    if not math.isfinite(value):
        raise InputError(f"value label {label!r} is not finite")
    return value


def encode_database(rows: list[RawEntry]) -> EncodedDatabase:
    """Encode raw table rows into an n-qubit database.

    Keys get basis indices in input order (the table is assumed presorted by
    key). Value labels get 1-based rank codes: the i-th smallest numeric
    label encodes to i+1. Rows whose labels parse to the same number share a
    code.

    Raises InputError when the row count is not 2^n for some n >= 1, when
    two rows share a key, or when a label fails numeric parsing.
    """
    if not rows:
        raise InputError("database must be nonempty")
    count = len(rows)
    if count < 2 or count & (count - 1):
        raise InputError(f"row count {count} is not a power of two (>= 2)")

    seen: set[str] = set()
    for row in rows:
        if row.key in seen:
            raise InputError(f"duplicate key {row.key!r}")
        seen.add(row.key)

    numerics = [_parse_numeric_label(row.value_label) for row in rows]
    codes = {num: float(rank + 1) for rank, num in enumerate(sorted(set(numerics)))}
    return EncodedDatabase(
        keys=tuple(row.key for row in rows),
        values=tuple(codes[num] for num in numerics),
        codes=codes,
    )


def encode_target(db: EncodedDatabase, value_label: str, strict: bool = False) -> float:
    """Encode a search target label to its numeric code.

    Labels whose number is in the database return its stored code. Absent
    labels are mapped through the order-preserving piecewise-linear
    extension of the numeric-label -> code map, so downstream nearest-match
    search (the argmin of (value - target)^2) selects the entry whose label
    is numerically closest to the query. With ``strict`` set, absent labels
    raise instead.
    """
    label = value_label.strip()
    num = _parse_numeric_label(label)
    if num in db.codes:
        return db.codes[num]
    if strict:
        raise InputError(f"target label {label!r} is not in the database")
    return _interpolate_code(sorted(db.codes.items()), num)


def _interpolate_code(known: list[tuple[float, float]], num: float) -> float:
    """Monotone extension of the label->code map to unseen numeric labels."""
    if len(known) == 1:
        # Degenerate single-value database: unit slope keeps the map injective.
        return known[0][1] + (num - known[0][0])
    # The segment around num; below or above every label, the nearest one.
    j = min(max(bisect.bisect_left(known, num, key=lambda kc: kc[0]), 1), len(known) - 1)
    (x0, c0), (x1, c1) = known[j - 1], known[j]
    return c0 + (c1 - c0) * (num - x0) / (x1 - x0)


def is_in_database(db: EncodedDatabase, value_label: str) -> bool:
    """True when the label's number occurs in the database."""
    try:
        return _parse_numeric_label(value_label.strip()) in db.codes
    except InputError:
        return False


def decode_outcome(db: EncodedDatabase, probabilities: list[float]) -> list[SearchOutcome]:
    """Pair measurement probabilities with decoded keys, best outcome first.

    Takes the populations of a QuantumState over db's register as given:
    that state has already checked their count, finiteness and sum.
    """
    outcomes = [
        SearchOutcome(index=i, key=db.keys[i], probability=float(p))
        for i, p in enumerate(probabilities)
    ]
    outcomes.sort(key=lambda o: (-o.probability, o.index))
    return outcomes


def _clean_field(raw: str, what: str, lineno: int | str) -> str:
    value = raw.strip()
    if not value:
        raise InputError(f"empty {what} at row {lineno}")
    return value


def load_rows_csv(path: str | Path) -> list[RawEntry]:
    """Read rows from a UTF-8 CSV with header ``key,value``; a leading BOM is skipped.

    Text that is not UTF-8, or that the csv module cannot split (a field
    past its size limit), raises InputError naming the path.
    """
    rows: list[RawEntry] = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header] != ["key", "value"]:
                raise InputError(f"{path}: expected CSV header 'key,value', got {header!r}")
            for lineno, record in enumerate(reader, start=2):
                if not record:
                    continue
                if len(record) != 2:
                    raise InputError(f"{path}: row {lineno} has {len(record)} fields, expected 2")
                key = _clean_field(record[0], "key", lineno)
                label = _clean_field(record[1], "value", lineno)
                _parse_numeric_label(label)
                rows.append(RawEntry(key=key, value_label=label))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from None
    return rows


def load_rows_json(path: str | Path) -> list[RawEntry]:
    """Read rows from a JSON array of ``{"key": ..., "value": ...}`` objects.

    Each key and value is a JSON string or number; numbers are read as their
    literal text, so a value 1.50 is the label "1.50" and 1e400 is "1e400".
    Text that is not UTF-8, not JSON, or nested past the parser's recursion
    limit raises InputError naming the path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        data = json.loads(text, parse_float=str, parse_int=str, parse_constant=str)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"{path}: {exc}") from None
    if not isinstance(data, list):
        raise InputError(f"{path}: expected a JSON array of objects")
    rows: list[RawEntry] = []
    for i, obj in enumerate(data):
        if not isinstance(obj, dict) or set(obj) != {"key", "value"}:
            raise InputError(f"{path}: element {i} must be an object with keys 'key' and 'value'")
        for name, item in obj.items():
            if not isinstance(item, str):
                shown = json.dumps(json.loads(text)[i][name])  # its numbers as numbers
                raise InputError(
                    f"{path}: element {i} field {name!r} must be a JSON string or number,"
                    f" got {shown}"
                )
        key = _clean_field(obj["key"], "key", i)
        label = _clean_field(obj["value"], "value", i)
        _parse_numeric_label(label)
        rows.append(RawEntry(key=key, value_label=label))
    return rows


def load_rows(path: str | Path) -> list[RawEntry]:
    """Dispatch on file extension: .json -> JSON array, anything else -> CSV."""
    if str(path).lower().endswith(".json"):
        return load_rows_json(path)
    return load_rows_csv(path)
