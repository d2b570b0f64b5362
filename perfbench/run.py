#!/usr/bin/env python3
"""Benchmark of the adiasearch pipeline through its public entry points.

Run from the root of a checkout; the package is imported from ``./src``:

    python3 perfbench/run.py --workload phonebook --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 1

One process, one client, closed loop: each ``cli.main`` call starts when the
previous one has returned. A run makes one pass over the workload's
operation list, so that every run does the same work on any commit;
``--seconds`` is recorded but does not change the work. A run takes 20 to
75 s on a 2-core Xeon host. Every output is checked against an independent
reference after its call returns, outside the timed region, and identical
calls must write identical bytes.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each
operation of the pass (but the gap_sweep workload's fixed instances) twice,
once untraced and once with a span around every call into the package's
layers, and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Human-readable lines
before it give every metric with its unit and each failed operation; a
record with provenance, per-operation results and (traced) spans is written
under ``.perfbench-work/results``.

End-to-end metrics are measured wall-clock times: ``pass_s`` is the time of
all operations of the pass; ``example_min_s`` the shortest time of the
README's worked example, run in blocks at fixed places spread over the pass
(``workloads.EXAMPLE_BLOCKS`` x ``workloads.EXAMPLES_PER_BLOCK`` calls);
``setup_s`` the median time of ``SETUP_SAMPLES`` fresh interpreters spread
evenly over the run. A shared host switches between fast and slow states,
from under a second to minutes long, in which single-thread work runs 1.3 to
2x slower, and the share of time spent in the slow state drifts from minute
to minute. The fastest of many examples spread over the whole run reads the
example's cost in the fast state, which holds steady where every percentile
from the 10th up follows the drift (the examples' median is printed as
``example_p50_s``, and the median of the other searches as ``search_p50_s``).
The record also holds the median time of a fixed kernel (``HostProbe``) as a
diagnostic of host speed.
Failures are counted, never dropped. ``correct`` is false when an operation
fails in any way other than the package's known fixed-step RK4 defect (see
``checks.RK4_DEFECT`` and ``checks.rk4_defect_exit``), whose failures count
as failed operations.
"""

from __future__ import annotations

import os

# Pinned before numpy loads. One thread keeps runs steady on a shared machine
# and is never more than nproc.
BLAS_THREADS = 1
if __name__ == "__main__":
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "ADIA_THREADS"):
        os.environ[_var] = str(BLAS_THREADS)

import argparse
import collections
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import tracing
import workloads

SETUP_SAMPLES = 7
WARMUP_CALLS = 12
WORK_DIR = ".perfbench-work"

# Setup: a fresh interpreter imports the CLI and runs the README's worked example.
SETUP_SCRIPT = """
import sys, time
t0 = time.perf_counter()
import adiasearch
from adiasearch.cli import main
if not adiasearch.__file__.startswith(sys.argv[1]):
    raise SystemExit("adiasearch imported from " + adiasearch.__file__)
rc = main(["search", "--out", sys.argv[2]])
print(repr(time.perf_counter() - t0))
raise SystemExit(rc)
"""


def import_cli(src: Path):
    sys.path.insert(0, str(src))
    cli = importlib.import_module("adiasearch.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: adiasearch imported from {cli.__file__}, not from {src}")
    return cli


def setup_time(src: Path, work: Path) -> float:
    """Seconds a fresh interpreter takes to import the CLI and run the worked example."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT, str(src.resolve()), str(work / "setup.json")],
        env=dict(os.environ, PYTHONPATH=str(src.resolve())), capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup run exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.split()[-1])


def provenance(root: Path, src: Path, workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((src / "adiasearch").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


class HostProbe:
    """A fixed CPU kernel, timed next to each setup sample, as a diagnostic of host speed.

    The speed of a shared host drifts by up to 2x within minutes. The record
    gives the kernel's median time, so that a reader comparing runs can tell a
    slow host from a slow program. The metrics are never scaled by it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 16, 16))
        self._a, self._b = a + a.T, b + b.T
        self._v = np.ones(16, dtype=complex)
        self.samples: list[float] = []

    def burst(self, count: int = 3) -> None:
        for _ in range(count):
            t0 = perf_counter()
            acc = 0
            for i in range(600):
                acc += i * i % 7
            v = self._v
            for k in range(60):
                v = ((1 - k / 60) * self._a + (k / 60) * self._b) @ v
                v = v / np.linalg.norm(v)
            for _ in range(10):
                np.linalg.eigh(self._a)
            self.samples.append(perf_counter() - t0)

    def median(self) -> float:
        return statistics.median(self.samples)


class Runner:
    """Runs operations, checks each output, and compares the bytes of identical calls."""

    def __init__(self, main, out_dir: Path, tracer: tracing.Tracer | None = None):
        self.main, self.out_dir, self.tracer = main, out_dir, tracer
        self.records: list[dict] = []
        self._digests: dict[tuple, tuple[str, int]] = {}

    def call(self, argv: list[str]) -> tuple[int | None, float, str]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = perf_counter()
            try:
                if self.tracer is None:
                    rc = self.main(argv)
                else:
                    rc = self.tracer.span("cli.main", self.main, argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is one failed operation, not the end of the run
                rc = None
                traceback.print_exc()
            seconds = perf_counter() - t0
        return rc, seconds, sink.getvalue()

    def run_op(self, op: workloads.Op, k: int, i: int) -> float:
        """Run, check and record operation i of pass k; returns its time."""
        out = self.out_dir / f"p{k}-op{i:03d}{checks.SUFFIX[op.kind]}"
        if self.tracer is not None:
            self.tracer.op_id = len(self.records)
        start = perf_counter()
        rc, seconds, text = self.call([*op.argv, "--out", str(out)])
        record = {"id": len(self.records), "pass": k, "kind": op.kind, "argv": list(op.argv), "qubits": op.qubits,
                  "fixed": op.fixed, "exit": rc, "expect": op.expect, "seconds": seconds, "start": start, "ok": True}
        failure, known = self._verify(op, rc, text, out, record["id"])
        if failure:
            record.update(ok=False, failure=failure, known_defect=known)
        self.records.append(record)
        for path in self.out_dir.glob(f"p{k}-op{i:03d}.*"):
            path.unlink()
        return seconds

    def run_traced(self, ops: list[workloads.Op], tracer: tracing.Tracer) -> tuple[float, float]:
        """Each operation untraced (pass 0) and traced (pass 1), alternating which runs
        first so that warm caches favour neither; returns (untraced, traced) time."""
        times = [0.0, 0.0]
        for i, op in enumerate(ops):
            for traced in (0, 1) if i % 2 == 0 else (1, 0):
                if traced:
                    tracer.install()
                    self.tracer = tracer
                try:
                    times[traced] += self.run_op(op, traced, i)
                finally:
                    if traced:
                        tracer.uninstall()
                        self.tracer = None
        return times[0], times[1]

    def _verify(self, op, rc, text, out: Path, op_id: int) -> tuple[str | None, bool]:
        if rc != op.expect:
            last = text.strip().splitlines()[-1] if text.strip() else ""
            return f"exit {rc}, expected {op.expect}: {last}", checks.rk4_defect_exit(op, rc, last)
        try:
            files = checks.check(op, out)
        except checks.CheckFailed as exc:
            return str(exc), exc.known
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in files)).hexdigest()
        first = self._digests.setdefault(op.argv, (digest, op_id))
        if first[0] != digest:
            return f"output bytes differ from operation {first[1]} with the same arguments", False
        return None, False


def summary(records: list[dict]) -> dict[str, tuple[float, str]]:
    """The per-kind latencies and failure share, for the human-readable lines.

    ``sweep`` latencies are of the seeded instances only.
    """
    ok = [r for r in records if r["ok"]]
    out = {}
    for kind in ("search", "example", "spectrum", "audit", "nmr", "sweep"):
        lat = [r["seconds"] for r in ok if r["kind"] == kind and not r["fixed"]]
        if lat:
            out[f"{kind}_p50_s"] = (statistics.median(lat), "s")
            if len(lat) >= 100:  # at least ten samples beyond the 90th percentile
                out[f"{kind}_p90_s"] = (statistics.quantiles(lat, n=10, method="inclusive")[-1], "s")
    out["fail_frac"] = (sum(not r["ok"] for r in records) / len(records), "ratio")
    return out


def run_workload(args, root: Path, src: Path) -> int:
    cli = import_cli(src)
    run_dir = root / WORK_DIR / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    results = root / WORK_DIR / "results"
    (run_dir / "out").mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.Workload(args.workload, args.seed, run_dir, src, tiny=args.tiny)
        probe = HostProbe()
        setup_time(src, run_dir)  # fills the bytecode cache
        with contextlib.redirect_stdout(io.StringIO()):
            for _ in range(WARMUP_CALLS):  # lazy imports, first-call caches
                cli.main(["search", "--out", str(run_dir / "warmup.json")])

        t0 = perf_counter()
        runner = Runner(cli.main, run_dir / "out")
        if args.trace:
            tracer = tracing.Tracer()
            untraced, traced = runner.run_traced(workload.ops(fixed_sweeps=False), tracer)
            values = tracer.layer_metrics()
            values["trace.overhead_frac"] = traced / untraced - 1.0
            values["trace.spans"] = float(len(tracer.spans))
            metrics = {m: (v, tracing.UNITS[m]) for m, v in values.items()}
            tracer.write(results / f"{args.workload}-seed{args.seed}-spans.jsonl", t0)
        else:
            ops = workload.ops()
            # Setup samples go before other operations, never inside a block of
            # worked examples, whose next calls a fresh interpreter slows down.
            others = [i for i, op in enumerate(ops) if op.kind != "example"]
            samples = 1 if args.tiny else SETUP_SAMPLES
            due = collections.Counter(others[j * len(others) // samples] for j in range(samples))
            setups = []
            for i, op in enumerate(ops):
                for _ in range(due[i]):
                    probe.burst()
                    setups.append(setup_time(src, run_dir))
                runner.run_op(op, 0, i)
        records = runner.records
        if not args.trace:
            examples = [r for r in records if r["kind"] == "example"]
            examples = [r for r in examples if r["ok"]] or examples
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "pass_s": (sum(r["seconds"] for r in records), "s"),
                "example_min_s": (min(r["seconds"] for r in examples), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        failed = [r for r in records if not r["ok"]]
        result = {
            "correct": all(r["known_defect"] for r in failed),
            "attempted": len(records),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        host = {"kernel_median_s": probe.median(), "kernel_samples": len(probe.samples),
                "setup_samples_s": setups} if probe.samples else None
        record = {
            "provenance": provenance(root, src, args.workload, args.seed),
            "trace": args.trace,
            "seconds_arg": args.seconds,
            "host_probe": host,
            "summary": {k: {"value": v, "unit": u} for k, (v, u) in summary(records).items()},
            "result": result,
            "operations": records,
        }
        record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(records)} operations, {len(failed)} failed")
    for name, (value, unit) in {**metrics, **summary(records)}.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    for r in failed:
        tag = "known RK4 defect" if r["known_defect"] else "FAILURE"
        print(f"  {tag}: op {r['id']} {' '.join(r['argv'])}: {r['failure']}")
    if host:
        print(f"  host probe {json.dumps(host)}")
    print(f"  provenance {json.dumps(record['provenance'])}")
    print(f"  record written to {record_path.relative_to(root)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        worst = max(worst, subprocess.run(argv).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0, help="recorded only: the work of a run is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "adiasearch" / "cli.py").is_file():
        print(f"error: no adiasearch package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, root, src)


if __name__ == "__main__":
    sys.exit(main())
