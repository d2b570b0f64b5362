"""Seeded inputs of the three benchmark workloads.

A workload is a list of operations, each one ``adiasearch.cli.main`` call.
Databases are generated from the seed and written to CSV or JSON files before
any timing starts; the program sees only those files and the argument lists.

Workloads and why they were chosen:

- ``phonebook``: over 100 small-register (n = 2..4) operations of every
  subcommand, so per-call overhead in ingest, encoding, operator build and
  report writing dominates. Also holds inputs that must exit 2 and two
  continuous searches at n = 5 whose targets sit outside the stored range,
  which fixed-step RK4 fails with norm drift (exit 3), as it fails
  continuous searches whose target code is extrapolated far from the table.
- ``wide_register``: a few n = 6..7 operations, dominated by the dense 4^n
  Pauli expansion and dense ``eigh``; RK4 is never called.
- ``gap_sweep``: one seeded ``gap-sweep`` instance per n = 2..5 (the README
  range), dominated by the RK4 probes of the time-to-success search. With
  fixed-step RK4 the n = 5 instance, and n = 4 instances whose time to
  success lies past its stability limit, exit 3 with ``SweepTimeout``; other
  n = 4 instances report a time that misses 0.9 under the reference.
  An instance runs 7 to 22 probes, so the seeded instances' time varies
  with the seed; the workload also runs one fixed instance (n = 2, the CLI's
  default instance seed 0) ``FIXED_SWEEPS`` times at evenly spaced places,
  which lengthens the timed pass with work that is the same for every seed.

Every workload also runs the README's worked example (bundled phone book,
default arguments) in ``EXAMPLE_BLOCKS`` blocks of ``EXAMPLES_PER_BLOCK``
calls, at evenly spaced places in the operation list (the first before the
first operation, the last after the last one), so per-call latency of a small
search is measured the same way in all three, at places that do not depend
on the seed.
"""

from __future__ import annotations

import csv
import json
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("phonebook", "wide_register", "gap_sweep")
EXAMPLE_BLOCKS = 16
EXAMPLES_PER_BLOCK = 12
FIXED_SWEEPS = 3

# Operation counts of the phonebook mix; about a sixth of the n <= 4
# searches are continuous, and there are at least 100 searches besides the
# worked examples, so that their 90th percentile has ten samples beyond it.
PHONEBOOK_MIX = {"discrete": 64, "trotter": 18, "continuous": 16, "spectrum": 10, "audit": 10, "nmr": 12}
PHONEBOOK_REPEATS = 8


@dataclass(frozen=True)
class Table:
    """A key-value table and the file it was written to (``None``: the bundled phone book)."""

    path: str | None
    keys: tuple[str, ...]
    labels: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.keys).bit_length() - 1


@dataclass(frozen=True)
class Op:
    """One ``cli.main`` call and what its checker needs to know about it.

    ``kind`` is search, example, spectrum, audit, nmr, sweep or reject.
    ``argv`` excludes ``--out``, which the runner adds per call. ``fixed``
    marks a gap-sweep instance that is the same for every seed.
    """

    kind: str
    argv: tuple[str, ...]
    table: Table | None = None
    target: str = ""
    method: str = "discrete"
    T: float = 10.45
    S: int = 10
    grid: int = 1001
    n: int = 0
    seed: int = 0
    expect: int = 0
    fixed: bool = False

    @property
    def qubits(self) -> int:
        """Register size, 0 for an input that is rejected before one is known."""
        return self.table.n if self.table is not None else self.n


def _keys(rng: np.random.Generator, count: int) -> tuple[str, ...]:
    letters = np.array(list(string.ascii_lowercase))
    names: set[str] = set()
    while len(names) < count:
        names.add("".join(rng.choice(letters, size=6)).capitalize())
    return tuple(sorted(names))


def _table(rng: np.random.Generator, path: Path, n: int, duplicates: bool = False) -> Table:
    """Random 7-digit phone numbers; with ``duplicates`` two pairs of rows share a number."""
    count = 2**n
    values = rng.choice(np.arange(3_600_000, 3_700_000), size=count, replace=False)
    if duplicates:
        a, b, c, d = rng.choice(count, size=4, replace=False)
        values[b], values[d] = values[a], values[c]
    table = Table(path=str(path), keys=_keys(rng, count), labels=tuple(str(int(v)) for v in values))
    write_table(path, table.keys, table.labels)
    return table


def write_table(path: Path, keys, labels) -> None:
    """Write rows as a ``key,value`` CSV, or as a JSON array when the suffix is .json."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".json":
        rows = [{"key": k, "value": int(v) if v.isdigit() else v} for k, v in zip(keys, labels)]
        path.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        writer.writerows(zip(keys, labels))


def bundled_table(src: Path) -> Table:
    with open(src / "adiasearch" / "data" / "phonebook.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return Table(path=None, keys=tuple(r[0] for r in rows), labels=tuple(r[1] for r in rows))


def _target(rng: np.random.Generator, table: Table, where: str | None = None) -> str:
    """A stored label, a number between two stored ones, or one just outside the range.

    Targets between two stored numbers never sit exactly halfway, so the
    nearest match is unique up to duplicate values.
    """
    nums = sorted({int(v) for v in table.labels})
    if where is None:
        where = rng.choice(["in", "between", "below", "above"], p=[0.5, 0.3, 0.1, 0.1])
    if where == "in":
        return table.labels[int(rng.integers(len(table.labels)))]
    if where == "below":
        return str(nums[0] - int(rng.integers(1, 1000)))
    if where == "above":
        return str(nums[-1] + int(rng.integers(1, 1000)))
    i = int(rng.integers(len(nums) - 1))
    tenths = int(rng.choice([1, 2, 3, 4, 6, 7, 8, 9]))
    return f"{nums[i] + (nums[i + 1] - nums[i]) * tenths / 10:.1f}"


def _db_args(table: Table) -> tuple[str, ...]:
    return () if table.path is None else ("--db", table.path)


def search(table: Table, target: str, method: str, T: float = 10.45, S: int = 10) -> Op:
    argv = ("search", *_db_args(table), "--target", target, "--method", method, "--T", repr(T), "--S", str(S))
    return Op("search", argv, table, target, method, T, S)


def example(bundled: Table) -> Op:
    """The README's worked example: bundled phone book, every argument at its default."""
    return Op("example", ("search",), bundled, "3601002")


def spectrum(table: Table, target: str, grid: int = 1001) -> Op:
    return Op("spectrum", ("spectrum", *_db_args(table), "--target", target, "--grid", str(grid)), table, target, grid=grid)


def audit(table: Table, target: str) -> Op:
    return Op("audit", ("trotter-audit", *_db_args(table), "--target", target), table, target)


def nmr(table: Table, target: str, S: int) -> Op:
    return Op("nmr", ("nmr-compile", *_db_args(table), "--target", target, "--S", str(S)), table, target, S=S)


def sweep(n: int, seed: int, fixed: bool = False) -> Op:
    argv = ("gap-sweep", "--n-min", str(n), "--n-max", str(n), "--seed", str(seed))
    return Op("sweep", argv, n=n, seed=seed, fixed=fixed)


def _spread(ops: list[Op], block: list[Op], count: int) -> list[Op]:
    """``ops`` with ``count`` copies of ``block`` at evenly spaced places, first and last included."""
    ops = list(ops)
    for i in reversed([round(j * len(ops) / (count - 1)) for j in range(count)]):
        ops[i:i] = block
    return ops


def reject(*argv: str) -> Op:
    return Op("reject", argv, expect=2)


class Workload:
    """Tables written at construction; ``ops()`` lists the operations of a run."""

    def __init__(self, name: str, seed: int, work: Path, src: Path, tiny: bool = False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name, self.seed, self.tiny = name, seed, tiny
        self.bundled = bundled_table(src)
        self.stream = WORKLOADS.index(name)
        rng = np.random.default_rng([seed, self.stream, 0])
        db = work / "db"
        self.tables: dict[str, Table] = {}
        if name == "phonebook":
            layout = {"n2a.csv": 2, "n2b.json": 2, "n2d.csv": 2, "n3a.csv": 3, "n3d.json": 3, "n4a.csv": 4, "n4d.json": 4, "n5a.csv": 5}
            for fname, n in layout.items():
                self.tables[fname] = _table(rng, db / fname, n, duplicates=fname[2] == "d")
            self._write_bad_tables(rng, db)
        elif name == "wide_register":
            sizes = (3, 4) if tiny else (6, 7)
            self.tables["small.csv"] = _table(rng, db / "small.csv", sizes[0])
            self.tables["large.json"] = _table(rng, db / "large.json", sizes[1])

    def _write_bad_tables(self, rng: np.random.Generator, db: Path) -> None:
        keys = _keys(rng, 4)
        write_table(db / "bad_rows.csv", keys[:3], ("3600001", "3600002", "3600003"))
        write_table(db / "bad_dupkey.csv", (keys[0], keys[0], keys[2], keys[3]), ("3600001", "3600002", "3600003", "3600004"))
        write_table(db / "bad_label.json", keys, ("3600001", "36OO002", "3600003", "3600004"))
        (db / "bad_header.csv").write_text("name,number\n" + "".join(f"{k},360000{i}\n" for i, k in enumerate(keys)), encoding="utf-8")

    def ops(self, fixed_sweeps: bool = True) -> list[Op]:
        """The run's operations; ``fixed_sweeps=False`` leaves out the fixed gap-sweep
        instances, which only lengthen the timed pass, to keep traced runs short."""
        rng = np.random.default_rng([self.seed, self.stream, 1])
        ops = getattr(self, "_" + self.name)(rng)
        ops = [ops[i] for i in rng.permutation(len(ops))]
        if self.tiny:
            return ops + [example(self.bundled)]
        if self.name == "gap_sweep" and fixed_sweeps:
            ops = _spread(ops, [sweep(2, 0, fixed=True)], FIXED_SWEEPS)
        return _spread(ops, [example(self.bundled)] * EXAMPLES_PER_BLOCK, EXAMPLE_BLOCKS)

    def _phonebook(self, rng: np.random.Generator) -> list[Op]:
        t = self.tables
        small = [self.bundled] + [t[f] for f in ("n2a.csv", "n2b.json", "n2d.csv", "n3a.csv", "n3d.json", "n4a.csv", "n4d.json")]
        two = small[:4]
        mix = {kind: 1 for kind in PHONEBOOK_MIX} if self.tiny else PHONEBOOK_MIX
        ops: list[Op] = []
        for method in ("discrete", "trotter", "continuous"):
            for i in range(mix[method]):
                table = small[i % len(small)]
                ops.append(search(table, _target(rng, table), method))
        for i in range(mix["spectrum"]):
            table = small[i % len(small)]
            ops.append(spectrum(table, _target(rng, table)))
        for i in range(mix["audit"]):
            table = small[i % len(small)]
            ops.append(audit(table, _target(rng, table)))
        for i in range(mix["nmr"]):
            table = two[i % len(two)]
            ops.append(nmr(table, _target(rng, table), int(rng.integers(10, 201))))
        # Repeats of earlier operations: their reports must match byte for byte.
        repeats = 1 if self.tiny else PHONEBOOK_REPEATS
        cheap = [op for op in ops if op.method != "continuous"]
        ops += [cheap[int(i)] for i in rng.choice(len(cheap), size=repeats, replace=False)]
        # The stored range is far from the target, so ||Hp|| is largest: RK4 drift at n = 5.
        n5 = t["n5a.csv"]
        ops += [search(n5, _target(rng, n5, side), "continuous") for side in ("below", "above")[: 1 if self.tiny else 2]]
        n3, bad = t["n3a.csv"], Path(t["n2a.csv"].path).parent
        absent = str(int(min(n3.labels, key=int)) - 7)
        ops += [
            reject("search", "--db", n3.path, "--target", absent, "--strict"),
            reject("search", "--db", t["n4a.csv"].path, "--target", str(int(max(t["n4a.csv"].labels, key=int)) + 3), "--strict", "--method", "trotter"),
            reject("spectrum", "--db", t["n2b.json"].path, "--target", "1", "--strict"),
            reject("nmr-compile", "--db", n3.path, "--target", n3.labels[0]),
            reject("nmr-compile", "--db", t["n4d.json"].path, "--target", t["n4d.json"].labels[0], "--S", "50"),
            reject("search", "--db", str(bad / "bad_rows.csv")),
            reject("search", "--db", str(bad / "bad_dupkey.csv")),
            reject("search", "--db", str(bad / "bad_label.json")),
            reject("spectrum", "--db", str(bad / "bad_header.csv")),
            reject("search", "--db", str(bad / "missing.csv")),
            reject("search", "--target", "36-01-002"),
            reject("search", "--S", "0"),
            reject("trotter-audit", "--T", "-1"),
            reject("spectrum", "--grid", "1"),
            reject("search", "--method", "quantum"),
        ][: 1 if self.tiny else None]
        return ops

    def _wide_register(self, rng: np.random.Generator) -> list[Op]:
        small, large = self.tables["small.csv"], self.tables["large.json"]

        def step_args(n: int) -> tuple[float, int]:
            return round(10.45 * n, 2), 10 * n

        ops = [search(small, _target(rng, small, "in"), m, *step_args(small.n)) for m in ("discrete", "trotter")]
        ops.append(search(large, _target(rng, large, "in"), "discrete", *step_args(large.n)))
        ops.append(spectrum(large, _target(rng, large, "between")))
        return ops

    def _gap_sweep(self, rng: np.random.Generator) -> list[Op]:
        sizes = (2,) if self.tiny else (2, 3, 4, 5)
        return [sweep(n, int(rng.integers(2**31))) for n in sizes]
