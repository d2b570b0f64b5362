"""Report text: deterministic JSON and CSV, written atomically.

Each command assembles its own payload; this module only turns values into
text and writes it. Reports carry no timestamps, so identical inputs produce
byte-identical files. Reals are emitted at full roundtrip precision; a
non-finite one is refused, since JSON has no NaN or infinity.
"""

from __future__ import annotations

import json
import os
from functools import cache
from json.encoder import c_make_encoder, encode_basestring_ascii

from .errors import NonFiniteResult

_INDENT = "  "
# Types of the members that json writes as one token each.
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


def _refuse(value):
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@cache
def _scalar_encoder(indent: str):
    """The stdlib's C JSON encoder of a container whose members are all
    scalars, with sorted keys, each member on its own line at ``indent``.

    json.dumps takes its pure-Python encoder whenever it indents; the C one
    writes no newlines of its own, but puts its item separator, here
    ",\n" + indent, between members."""
    return c_make_encoder(None, _refuse, encode_basestring_ascii, None, ": ", ",\n" + indent, True, False, False)


def _indented(value, indent: str) -> str:
    """The text json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
    gives value when it starts on a line indented by ``indent``.

    A container whose members are all of _SCALAR_TYPES is one C encoder
    call; the others are walked here, and their keys must be strings, as
    every report's are.
    """
    if isinstance(value, dict):
        members, brackets = value.values(), "{}"
    elif isinstance(value, (list, tuple)):
        members, brackets = value, "[]"
    else:
        return "".join(_scalar_encoder(indent)(value, 0))
    if not members:
        return brackets
    inner = indent + _INDENT
    if _SCALAR_TYPES.issuperset(map(type, members)):
        text = "".join(_scalar_encoder(inner)(value, 0))[1:-1]
    elif brackets == "{}":
        text = (",\n" + inner).join(
            f"{encode_basestring_ascii(key)}: {_indented(member, inner)}"
            for key, member in sorted(value.items())
        )
    else:
        text = (",\n" + inner).join(_indented(member, inner) for member in value)
    return f"{brackets[0]}\n{inner}{text}\n{indent}{brackets[1]}"


def _non_finite(exc: ValueError) -> NonFiniteResult:
    return NonFiniteResult(f"report holds a non-finite number: {exc}")


def dumps_report(payload: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    For a payload whose keys are strings, the text is, byte for byte,
    json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\\n",
    made by the C encoder; an interpreter without one makes it by that call."""
    try:
        if c_make_encoder is None:
            return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
        return _indented(payload, "") + "\n"
    except ValueError as exc:
        raise _non_finite(exc) from exc


def dumps_lines(records: list[dict]) -> str:
    """JSON lines: one sorted-key record per line."""
    try:
        return "".join(json.dumps(record, sort_keys=True, allow_nan=False) + "\n" for record in records)
    except ValueError as exc:
        raise _non_finite(exc) from exc


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write text as UTF-8 to a hidden sibling .<hex>.tmp, then rename it over path.

    The temp file is created exclusively with mode 0o666, less the umask as
    the kernel applies it, the mode a plain open gives a new file. Its name
    has a fixed length, so any name the target may have fits. A failed
    write or rename removes it.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:  # a buffered writer retries short writes
            fh.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def trace_to_csv(trace) -> str:
    """Plot-ready CSV of a spectrum.SpectrumTrace: column s, then the sorted
    levels E0..E_{N-1}.

    Rows are converted to floats one tolist at a time and joined once, so
    the text, the largest object of a trace, is held at most twice.
    """
    header = "s," + ",".join(f"E{k}" for k in range(trace.levels.shape[1]))
    rows = [
        ",".join(map(repr, [s, *row.tolist()]))
        for s, row in zip(trace.s_grid.tolist(), trace.levels)
    ]
    return "\n".join([header, *rows, ""])


def sweep_to_csv(rows: list) -> str:
    """CSV of spectrum.SweepRow records: n, N, min gap, time to success."""
    lines = ["n,N,min_gap,T_to_success"]
    for row in rows:
        lines.append(
            f"{row.n},{row.N},{repr(float(row.min_gap))},{repr(float(row.T_to_success))}"
        )
    return "\n".join(lines) + "\n"
