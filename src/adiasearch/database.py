"""Classical key-value table encoding for the quantum search pipeline.

A database is a phone-book style table, already sorted by key. Keys map to
computational basis indices in input order; value labels map to 1-based rank
codes of their sorted numeric interpretations, so the smallest number gets
code 1. Duplicate numeric values share a code and flag the database as a
multi-solution instance.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    DuplicateKey,
    InputError,
    LengthMismatch,
    NotNormalized,
    NotPowerOfTwo,
    TargetNotInDatabase,
    UnparseableValueLabel,
)

PROB_SUM_TOL = 1e-6


@dataclass(frozen=True)
class RawEntry:
    """One pre-encoding table row: a key (name) and a value label (number string)."""

    key: str
    value_label: str

    def __post_init__(self):
        if not self.key:
            raise InputError("entry key must be nonempty")
        if not self.value_label:
            raise InputError("entry value label must be nonempty")


@dataclass(frozen=True)
class SearchOutcome:
    """A decoded measurement result: basis index, its key, and the probability."""

    index: int
    key: str
    probability: float


@dataclass(frozen=True)
class EncodedDatabase:
    """Quantum-ready database: (index, value) pairs plus the two codebooks.

    ``entries[i]`` is ``(i, value_i)`` for every basis index of the n-qubit
    register. ``key_decoder`` inverts the key encoding; ``value_encoder``
    maps each original value label to its numeric code. When two labels
    collapse to the same code, ``has_duplicate_values`` is set: the instance
    has a degenerate (multi-solution) ground level for that target.
    """

    n_qubits: int
    entries: tuple[tuple[int, float], ...]
    key_decoder: dict[int, str] = field(repr=False)
    value_encoder: dict[str, float] = field(repr=False)
    has_duplicate_values: bool = False

    def __post_init__(self):
        n = 2**self.n_qubits
        if len(self.entries) != n:
            raise LengthMismatch(f"expected {n} entries, got {len(self.entries)}")
        if [i for i, _ in self.entries] != list(range(n)):
            raise InputError("entry indices must be exactly 0..2^n-1 in order")
        missing = [i for i in range(n) if i not in self.key_decoder]
        if missing:
            raise InputError(f"key_decoder missing indices {missing}")

    @property
    def size(self) -> int:
        return 2**self.n_qubits

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.entries)


def _parse_numeric_label(label: str) -> float:
    try:
        value = float(label)
    except ValueError:
        raise UnparseableValueLabel(
            f"value label {label!r} is not a decimal integer or real"
        ) from None
    if not math.isfinite(value):
        raise UnparseableValueLabel(f"value label {label!r} is not finite")
    return value


def encode_database(rows: list[RawEntry]) -> EncodedDatabase:
    """Encode raw table rows into an n-qubit database.

    Keys get basis indices in input order (the table is assumed presorted by
    key). Value labels get 1-based rank codes: the i-th smallest numeric
    label encodes to i+1. Rows whose labels parse to the same number share a
    code and set ``has_duplicate_values``.

    Raises:
        NotPowerOfTwo: row count is not 2^n for some n >= 1.
        DuplicateKey: two rows share a key.
        UnparseableValueLabel: a label fails numeric parsing.
    """
    if not rows:
        raise NotPowerOfTwo("database must be nonempty")
    count = len(rows)
    n = count.bit_length() - 1
    if count != 2**n or count < 2:
        raise NotPowerOfTwo(f"row count {count} is not a power of two (>= 2)")

    seen: set[str] = set()
    for row in rows:
        if row.key in seen:
            raise DuplicateKey(f"duplicate key {row.key!r}")
        seen.add(row.key)

    numerics = [_parse_numeric_label(row.value_label) for row in rows]
    unique_sorted = sorted(set(numerics))
    code_of = {num: rank + 1 for rank, num in enumerate(unique_sorted)}

    entries = tuple((i, float(code_of[num])) for i, num in enumerate(numerics))
    key_decoder = {i: row.key for i, row in enumerate(rows)}
    value_encoder = {row.value_label: float(code_of[num]) for row, num in zip(rows, numerics)}
    return EncodedDatabase(
        n_qubits=n,
        entries=entries,
        key_decoder=key_decoder,
        value_encoder=value_encoder,
        has_duplicate_values=len(unique_sorted) < count,
    )


def encode_target(db: EncodedDatabase, value_label: str, strict: bool = False) -> float:
    """Encode a search target label to its numeric code.

    Labels present in the database return their stored code. Absent labels
    are mapped through the order-preserving piecewise-linear extension of
    the numeric-label -> code map, so downstream nearest-match search (the
    argmin of (value - target)^2) selects the entry whose label is
    numerically closest to the query. With ``strict`` set, absent labels
    raise instead.
    """
    label = value_label.strip()
    if label in db.value_encoder:
        return db.value_encoder[label]

    num = _parse_numeric_label(label)
    known = sorted({float(_parse_numeric_label(k)): v for k, v in db.value_encoder.items()}.items())
    for k_num, code in known:
        if num == k_num:
            return code

    if strict:
        raise TargetNotInDatabase(f"target label {label!r} is not in the database")
    return _interpolate_code(known, num)


def _interpolate_code(known: list[tuple[float, float]], num: float) -> float:
    """Monotone extension of the label->code map to unseen numeric labels."""
    if len(known) == 1:
        # Degenerate single-value database: unit slope keeps the map injective.
        return known[0][1] + (num - known[0][0])
    if num < known[0][0]:
        lo, hi = known[0], known[1]
    elif num > known[-1][0]:
        lo, hi = known[-2], known[-1]
    else:
        lo, hi = known[0], known[-1]
        for (x0, c0), (x1, c1) in zip(known, known[1:]):
            if x0 <= num <= x1:
                lo, hi = (x0, c0), (x1, c1)
                break
    (x0, c0), (x1, c1) = lo, hi
    return c0 + (c1 - c0) * (num - x0) / (x1 - x0)


def is_in_database(db: EncodedDatabase, value_label: str) -> bool:
    """True when the label (or its numeric value) occurs in the database."""
    label = value_label.strip()
    if label in db.value_encoder:
        return True
    try:
        num = _parse_numeric_label(label)
    except UnparseableValueLabel:
        return False
    return any(num == float(_parse_numeric_label(k)) for k in db.value_encoder)


def decode_outcome(db: EncodedDatabase, probabilities: list[float]) -> list[SearchOutcome]:
    """Pair measurement probabilities with decoded keys, best outcome first.

    Raises:
        LengthMismatch: probability vector length differs from 2^n.
        NotNormalized: entries outside [0, 1] (NaN included) or sum off 1 by
            more than 1e-6.
    """
    if len(probabilities) != db.size:
        raise LengthMismatch(
            f"expected {db.size} probabilities, got {len(probabilities)}"
        )
    if not all(0.0 <= p <= 1.0 for p in probabilities):
        raise NotNormalized("probabilities must lie in [0, 1]")
    total = sum(probabilities)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise NotNormalized(f"probabilities sum to {total!r}, expected 1")

    outcomes = [
        SearchOutcome(index=i, key=db.key_decoder[i], probability=float(p))
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
    """Read rows from a UTF-8 CSV with header ``key,value``; a leading BOM is skipped."""
    rows: list[RawEntry] = []
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
    return rows


def load_rows_json(path: str | Path) -> list[RawEntry]:
    """Read rows from a JSON array of ``{"key": ..., "value": ...}`` objects."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise InputError(f"{path}: expected a JSON array of objects")
    rows: list[RawEntry] = []
    for i, obj in enumerate(data):
        if not isinstance(obj, dict) or set(obj) != {"key", "value"}:
            raise InputError(f"{path}: element {i} must be an object with keys 'key' and 'value'")
        key = _clean_field(str(obj["key"]), "key", i)
        label = _clean_field(str(obj["value"]), "value", i)
        _parse_numeric_label(label)
        rows.append(RawEntry(key=key, value_label=label))
    return rows


def load_rows(path: str | Path) -> list[RawEntry]:
    """Dispatch on file extension: .json -> JSON array, anything else -> CSV."""
    if str(path).lower().endswith(".json"):
        return load_rows_json(path)
    return load_rows_csv(path)
