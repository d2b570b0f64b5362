"""Self-tests of the benchmark: every checker rejects a corrupted output, the
Runner catches differing bytes and wrong exit codes, the tracer accounts for
all traced time, and a tiny-size run of each workload prints a valid result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from adiasearch import cli  # noqa: E402


@pytest.fixture
def tables(tmp_path):
    rng = np.random.default_rng(7)
    return {
        2: workloads._table(rng, tmp_path / "n2.csv", 2),
        3: workloads._table(rng, tmp_path / "n3.json", 3, duplicates=True),
    }


def produce(op, out: Path) -> Path:
    assert cli.main([*op.argv, "--out", str(out)]) == op.expect
    return out


def corrupt_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("method", ["discrete", "trotter"])
def test_search_check_rejects_permuted_probabilities(tables, tmp_path, method):
    table = tables[3]
    op = workloads.search(table, table.labels[2], method)
    out = produce(op, tmp_path / "r.json")
    assert checks.check(op, out) == [out]
    corrupt_json(out, lambda d: d["probabilities"].reverse())
    with pytest.raises(checks.CheckFailed):
        checks.check(op, out)


def test_search_check_rejects_wrong_top_key(tables, tmp_path):
    table = tables[2]
    op = workloads.search(table, table.labels[1], "discrete")
    out = produce(op, tmp_path / "r.json")
    other = next(k for k in table.keys if k != table.keys[1])

    def edit(d):
        d["top_outcome"]["key"] = other

    corrupt_json(out, edit)
    with pytest.raises(checks.CheckFailed, match="top outcome"):
        checks.check(op, out)


def test_continuous_check_rejects_perturbed_probabilities(tables, tmp_path):
    table = tables[2]
    op = workloads.search(table, table.labels[0], "continuous")
    out = produce(op, tmp_path / "r.json")
    checks.check(op, out)

    def edit(d):
        d["probabilities"][0] += 1e-3
        d["probabilities"][1] -= 1e-3

    corrupt_json(out, edit)
    with pytest.raises(checks.CheckFailed) as info:
        checks.check(op, out)
    assert info.value.known  # small RK4-sized errors are attributed to the known defect


def test_spectrum_check_rejects_wrong_gap(tables, tmp_path):
    table = tables[3]
    op = workloads.spectrum(table, table.labels[0], grid=101)
    out = produce(op, tmp_path / "s.csv")
    checks.check(op, out)
    corrupt_json(out.with_suffix(".gap.json"), lambda d: d.update(min_gap=d["min_gap"] + 1e-6))
    with pytest.raises(checks.CheckFailed, match="min_gap"):
        checks.check(op, out)


def test_audit_check_rejects_wrong_fidelity(tables, tmp_path):
    table = tables[2]
    op = workloads.audit(table, table.labels[3])
    out = produce(op, tmp_path / "a.json")
    checks.check(op, out)
    corrupt_json(out, lambda d: d["per_step_fidelity"].__setitem__(4, d["per_step_fidelity"][4] - 1e-6))
    with pytest.raises(checks.CheckFailed, match="per-step"):
        checks.check(op, out)


def test_nmr_check_rejects_failed_verification_and_wrong_state(tables, tmp_path):
    table = tables[2]
    op = workloads.nmr(table, table.labels[0], S=12)
    out = produce(op, tmp_path / "p.jsonl")
    checks.check(op, out)
    verify = out.with_suffix(".verify.json")
    original = verify.read_text()
    corrupt_json(verify, lambda d: d.update({"all_within_1e-6": False}))
    with pytest.raises(checks.CheckFailed, match="1e-6"):
        checks.check(op, out)
    verify.write_text(original)
    corrupt_json(verify, lambda d: d["final_probabilities"].reverse())
    with pytest.raises(checks.CheckFailed):
        checks.check(op, out)


def test_sweep_check_rejects_wrong_gap_and_short_time(tmp_path):
    op = workloads.sweep(2, seed=11)
    Hi, hp = checks.sweep_instance(2, 11)
    gap = float(min(np.diff(np.linalg.eigvalsh((1 - s) * Hi + s * np.diag(hp))[:2])[0] for s in np.linspace(0, 1, 1001)))
    out = tmp_path / "g.csv"

    def row(min_gap, T):
        out.write_text(f"n,N,min_gap,T_to_success\n2,4,{min_gap!r},{T!r}\n")
        return out

    checks.check(op, row(gap, 40.0))
    with pytest.raises(checks.CheckFailed, match="min_gap"):
        checks.check(op, row(gap * 1.001, 40.0))
    with pytest.raises(checks.CheckFailed, match="T_to_success") as info:
        checks.check(op, row(gap, 1.0))
    assert not info.value.known  # far short of 0.9: not an RK4-sized error


def test_magnus_reference_is_fourth_order():
    Hi, hp = checks.instance(["3", "1", "4", "2"], "2")
    exact = checks.magnus4(Hi, hp, 10.45, 1600)
    errors = [np.max(np.abs(checks.magnus4(Hi, hp, 10.45, m) - exact)) for m in (50, 100)]
    assert 12 < errors[0] / errors[1] < 20


def test_reference_encoding_matches_documented_rule():
    labels = ["30", "10", "40", "10"]
    assert list(checks.rank_codes(labels)) == [2.0, 1.0, 3.0, 1.0]
    assert checks.target_code(labels, "35") == 2.5
    assert checks.target_code(labels, "5") == 0.75
    assert checks.nearest(labels, "12") == [1, 3]


class FakeMain:
    """Writes a report whose bytes change on every call, or exits with a fixed code."""

    def __init__(self, rc=0):
        self.calls, self.rc = 0, rc

    def __call__(self, argv):
        self.calls += 1
        Path(argv[-1]).write_text(json.dumps({"call": self.calls}))
        return self.rc


def test_runner_flags_differing_bytes_and_wrong_exit(tmp_path, monkeypatch):
    import run

    monkeypatch.setitem(checks.CHECKERS, "search", lambda op, out: [out])
    op = workloads.Op("search", ("search", "--target", "1"))
    runner = run.Runner(FakeMain(), tmp_path)
    runner.run_op(op, 0, 0)
    runner.run_op(op, 0, 1)
    assert runner.records[0]["ok"] and not runner.records[1]["ok"]
    assert "differ" in runner.records[1]["failure"] and not runner.records[1]["known_defect"]

    runner = run.Runner(FakeMain(rc=2), tmp_path)
    runner.run_op(op, 1, 0)
    runner.run_op(workloads.reject("search"), 1, 1)
    assert [r["ok"] for r in runner.records] == [False, True]


def test_only_rk4_messages_mark_an_exit_3_as_the_known_defect():
    continuous = workloads.Op("search", ("search",), method="continuous")
    discrete = workloads.Op("search", ("search",))
    sweep = workloads.sweep(5, 1)
    drift = "numeric error: norm drifted to 1.0000031 at t=7.3; reduce dt"
    stuck = "numeric error: no success by T=2097152.0; instance looks stuck"
    assert checks.rk4_defect_exit(continuous, 3, drift) and checks.rk4_defect_exit(sweep, 3, drift)
    assert checks.rk4_defect_exit(sweep, 3, stuck)
    assert not checks.rk4_defect_exit(continuous, 3, stuck)
    assert not checks.rk4_defect_exit(discrete, 3, drift)
    assert not checks.rk4_defect_exit(continuous, 1, drift)
    assert not checks.rk4_defect_exit(sweep, 3, "numeric error: scaling-sweep instance exceeded its wall-clock cap")
    assert not checks.rk4_defect_exit(continuous, 3, "numeric error: eigensolver did not converge")


def test_tracer_self_times_add_up_and_restore(tables, tmp_path):
    from adiasearch import evolve, operators

    original = operators.pauli_decompose
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert evolve.interpolate is operators.interpolate is not None
        assert operators.pauli_decompose is not original
        op = workloads.search(tables[2], tables[2].labels[0], "trotter")
        tracer.span("cli.main", cli.main, [*op.argv, "--out", str(tmp_path / "r.json")])
    finally:
        tracer.uninstall()
    assert operators.pauli_decompose is original
    metrics = tracer.layer_metrics()
    name, start, end, parent, _ = tracer.spans[0]
    assert (name, parent) == ("cli.main", -1)
    assert sum(metrics[m] for m in tracing.TIME_METRICS) == pytest.approx(end - start, rel=1e-9)
    assert metrics["operators.pauli_strings"] == 16 and metrics["evolve.steps"] > 0
    assert metrics["evolve.trotter_s"] > 0 and metrics["evolve.audit_s"] > 0


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [("phonebook", 0), ("phonebook", 1), ("wide_register", 0), ("gap_sweep", 0)])
def test_tiny_run_prints_a_valid_result(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "--workload", "phonebook", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and proc.stdout.strip() == ""
