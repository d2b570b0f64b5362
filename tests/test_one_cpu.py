"""Each command's bytes do not depend on the CPUs, the BLAS threads or the load
of the host it runs on.

The node solves and the trace's blocks run on one worker per CPU the process
may use, and the CLI pins BLAS to one thread unless the environment sets it.
Each command first runs in fresh interpreters at once: one as is, with the
BLAS thread variables at 1, and one per unloaded variant it names. ``one_cpu``
is held to a single CPU (so with one worker) before it imports the CLI, and
``blas_unset`` runs with the BLAS thread variables unset. Once they have
exited, ``loaded`` runs as the first one does, beside a CPU-bound process.
Their exit codes, stdout, stderr and every file they write must match.
"""

import csv
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ONE_CPU = "import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
RUN_CLI = "import sys\nfrom adiasearch.cli import main\nsys.exit(main(sys.argv[1:]))\n"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

pytestmark = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """The n = 6 and n = 7 tables: key k<i>, value 3600000 + 37 i mod 2^n."""
    root = tmp_path_factory.mktemp("tables")
    for n in (6, 7):
        rows = "".join(f"k{i},{3600000 + 37 * i % 2**n}\n" for i in range(2**n))
        (root / f"n{n}.csv").write_text("key,value\n" + rows)
    return root


COMMANDS = {
    # the README sweep: every probe pass solves its CF4 nodes on the workers
    "sweep": (
        ["gap-sweep", "--n-min", "2", "--n-max", "5", "--seed", "0", "--out", "sweep.csv"],
        ("one_cpu", "blas_unset", "loaded"),
    ),
    # the README continuous search: its 200-node first pass spans two blocks at n = 2
    "continuous": (["search", "--method", "continuous", "--out", "r.json"], ("one_cpu",)),
    # the README search at --S 300: its 301 exact steps span three blocks of 128
    "discrete-s300": (["search", "--S", "300", "--out", "r.json"], ("one_cpu",)),
    # the pooled level trace and its gap report
    "spectrum": (["spectrum", "--grid", "1001", "--out", "trace.csv"], ("one_cpu", "blas_unset")),
    "discrete-n7": (
        ["search", "--db", "{tables}/n7.csv", "--target", "3600005", "--S", "70", "--out", "r.json"],
        ("one_cpu",),
    ),
    "audit-n6": (["trotter-audit", "--db", "{tables}/n6.csv", "--target", "3600005", "--out", "audit.json"], ("one_cpu",)),
    "trotter-n6": (
        ["search", "--method", "trotter", "--db", "{tables}/n6.csv", "--target", "3600005", "--out", "r.json"],
        ("one_cpu",),
    ),
}


def readme_sweep_rows() -> dict[str, tuple[str, ...]]:
    """The README's gap-sweep table, row by n: n, N, min gap to 6 places, T*."""
    row = r"^\| (\d+) \| (\d+) \| ([\d.]+) \| (\d+) \|$"
    return {m[0]: m for m in re.findall(row, (ROOT / "README.md").read_text(encoding="utf-8"), re.M)}


def run_at_once(tmp_path, argv, setups, names, beside_hog=False):
    """Run the command in one fresh interpreter per named setup, all at once and,
    if asked, beside a CPU-bound process; return each run's exit code, stdout,
    stderr and written files."""
    procs = {}
    if beside_hog:
        procs["hog"] = (None, subprocess.Popen([sys.executable, "-c", "while True: pass"]))
    try:
        for name in names:
            script, env = setups[name]
            cwd = tmp_path / name
            cwd.mkdir()
            proc = subprocess.Popen(
                [sys.executable, "-c", script, *argv], cwd=cwd, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            procs[name] = (cwd, proc)
        results = {}
        for name, (cwd, proc) in procs.items():
            if cwd is not None:
                stdout, stderr = proc.communicate(timeout=300)
                files = {path.name: path.read_bytes() for path in sorted(cwd.iterdir())}
                results[name] = (proc.returncode, stdout, stderr, files)
        return results
    finally:
        for _, proc in procs.values():
            proc.kill()  # a no-op once the process has exited
            proc.wait()


@pytest.mark.parametrize("args, variants", COMMANDS.values(), ids=COMMANDS.keys())
def test_command_bytes_match_on_one_cpu(tmp_path, tables, args, variants):
    argv = [arg.format(tables=tables) for arg in args]
    pinned = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **dict.fromkeys(BLAS_THREADS, "1"))
    unset = {k: v for k, v in pinned.items() if k not in BLAS_THREADS}
    setups = {
        "pinned": (RUN_CLI, pinned),
        "one_cpu": (ONE_CPU + RUN_CLI, pinned),
        "blas_unset": (RUN_CLI, unset),
        "loaded": (RUN_CLI, pinned),
    }
    results = run_at_once(tmp_path, argv, setups, ["pinned", *(v for v in variants if v != "loaded")])
    if "loaded" in variants:
        results |= run_at_once(tmp_path, argv, setups, ["loaded"], beside_hog=True)
    assert results["pinned"][0] == 0, results["pinned"][2]
    assert results["pinned"][3], "the command wrote no file"
    for name in variants:
        assert results[name] == results["pinned"], name
    if args[0] == "gap-sweep":
        readme = readme_sweep_rows()
        rows = list(csv.DictReader(io.StringIO(results["pinned"][3]["sweep.csv"].decode())))
        assert [r["n"] for r in rows] == ["2", "3", "4", "5"], rows
        for r in rows:
            got = (r["n"], r["N"], f"{float(r['min_gap']):.6f}", f"{float(r['T_to_success']):g}")
            assert got == readme[r["n"]], (got, readme[r["n"]])
