"""Each command's bytes do not depend on how many CPUs the process may use.

The node solves and the trace's blocks run on one worker per CPU the process
may use. Each command runs twice, in two fresh interpreters at once: one as
is, one held to a single CPU (so with one worker) before it imports the CLI.
Their exit codes, stdout, stderr and every file they write must match.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ONE_CPU = "import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
RUN_CLI = "import sys\nfrom adiasearch.cli import main\nsys.exit(main(sys.argv[1:]))\n"

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
    "sweep": ["gap-sweep", "--n-min", "2", "--n-max", "5", "--seed", "0", "--out", "sweep.csv"],
    # the README continuous search: its 200-node first pass spans two blocks at n = 2
    "continuous": ["search", "--method", "continuous", "--out", "r.json"],
    # the README search at --S 300: its 301 exact steps span three blocks of 128
    "discrete-s300": ["search", "--S", "300", "--out", "r.json"],
    # the pooled level trace and its gap report
    "spectrum": ["spectrum", "--grid", "1001", "--out", "trace.csv"],
    "discrete-n7": ["search", "--db", "{tables}/n7.csv", "--target", "3600005", "--S", "70", "--out", "r.json"],
    "audit-n6": ["trotter-audit", "--db", "{tables}/n6.csv", "--target", "3600005", "--out", "audit.json"],
    "trotter-n6": ["search", "--method", "trotter", "--db", "{tables}/n6.csv", "--target", "3600005", "--out", "r.json"],
}


@pytest.mark.parametrize("args", COMMANDS.values(), ids=COMMANDS.keys())
def test_command_bytes_match_on_one_cpu(tmp_path, tables, args):
    argv = [arg.format(tables=tables) for arg in args]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = {}
    for name, script in (("pooled", RUN_CLI), ("one_cpu", ONE_CPU + RUN_CLI)):
        cwd = tmp_path / name
        cwd.mkdir()
        proc = subprocess.Popen(
            [sys.executable, "-c", script, *argv], cwd=cwd, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        runs[name] = (cwd, proc)
    results = {}
    try:
        for name, (cwd, proc) in runs.items():
            stdout, stderr = proc.communicate(timeout=300)
            files = {path.name: path.read_bytes() for path in sorted(cwd.iterdir())}
            results[name] = (proc.returncode, stdout, stderr, files)
    finally:
        for _, proc in runs.values():
            proc.kill()  # a no-op once the process has exited
    assert results["pooled"][0] == 0, results["pooled"][2]
    assert results["pooled"][3], "the command wrote no file"
    assert results["one_cpu"] == results["pooled"]
