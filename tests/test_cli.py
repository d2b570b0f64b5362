import importlib
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from adiasearch import cli
from adiasearch.cli import bundled_database_path, main
from conftest import TWO_SOLUTION_LABELS

DATA = Path(__file__).parent / "data"


def run_cli(args):
    return main([str(a) for a in args])


def test_bundled_database_matches_worked_example():
    from adiasearch.database import encode_database, load_rows

    db = encode_database(load_rows(bundled_database_path()))
    assert db.values == (4.0, 3.0, 1.0, 2.0)


def test_cli_start_up_imports_no_scipy(tmp_path):
    # A routine only scipy has (e.g. eigh's subset_by_index for the two-level
    # gap refinement in ROADMAP.md) is imported inside the function that uses it.
    script = (
        "import sys\n"
        "from adiasearch.cli import main\n"
        "assert main(['search', '--out', sys.argv[1]]) == 0\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("preset", [None, "3"])
def test_cli_pins_blas_to_one_thread_unless_set(preset):
    # The node solves run one per CPU, so each eigh must run on one BLAS thread.
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    script = (
        "import os\n"
        "import adiasearch.cli\n"
        f"print(' '.join(os.environ[name] for name in {names!r}))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = str(src)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [preset or "1", "1", "1"]


def test_search_defaults(tmp_path, capsys, phonebook_csv):
    out = tmp_path / "report.json"
    code = run_cli(["search", "--db", phonebook_csv, "--target", "3601002", "--out", out])
    assert code == 0
    printed = capsys.readouterr().out
    assert "David" in printed
    report = json.loads(out.read_text())
    assert report["schema_version"] == 2
    assert report["method"] == "discrete-exact"
    assert report["top_outcome"]["key"] == "David"
    assert abs(report["top_outcome"]["probability"] - 0.972) < 0.01
    assert abs(sum(report["probabilities"]) - 1.0) < 1e-6
    assert report["parameters"]["target_code"] == 2.0
    pauli = {t["axes"]: t["coeff"] for t in report["problem_hamiltonian"]["pauli_terms"]}
    assert pauli == {"II": 1.5, "IZ": 1.0, "ZI": 1.0, "ZZ": 0.5}


def test_search_eight_qubits(tmp_path):
    rng = np.random.default_rng(8)
    numbers = rng.choice(np.arange(3_600_000, 3_700_000), size=256, replace=False)
    db = tmp_path / "wide.csv"
    db.write_text("key,value\n" + "".join(f"k{i},{v}\n" for i, v in enumerate(numbers)), encoding="utf-8")
    out = tmp_path / "report.json"
    target = numbers[77]
    assert run_cli(["search", "--db", db, "--target", target, "--out", out]) == 0
    codes = np.argsort(np.argsort(numbers)) + 1.0  # rank codes: the smallest number gets 1
    d = (codes - codes[77]) ** 2
    terms = json.loads(out.read_text())["problem_hamiltonian"]["pauli_terms"]
    assert 0 < len(terms) <= 256
    assert set("".join(t["axes"] for t in terms)) <= {"I", "Z"}
    i = np.arange(256)
    diagonal = np.zeros(256)
    for t in terms:
        z_mask = int(t["axes"].replace("I", "0").replace("Z", "1"), 2)
        parity = sum(((i & z_mask) >> k) & 1 for k in range(8))
        diagonal += t["coeff"] * np.where(parity % 2 == 0, 1.0, -1.0)
    assert np.max(np.abs(diagonal - d)) <= 1e-6 * np.max(d)


def test_fractional_target_problem_hamiltonian_is_frozen(tmp_path):
    # 32 distinct numbers 7 apart; 3600100 falls between two of them, so the
    # target code is fractional (15.2857...). The expected text is the one the
    # general 4^n Pauli expansion wrote, kept byte for byte.
    db = tmp_path / "n5.csv"
    db.write_text("key,value\n" + "".join(f"k{i},{3600000 + 7 * (13 * i % 32)}\n" for i in range(32)),
                  encoding="utf-8")
    out = tmp_path / "report.json"
    assert run_cli(["search", "--db", db, "--target", "3600100", "--out", out]) == 0
    frozen = (DATA / "search_n5_fractional_problem_hamiltonian.txt").read_text(encoding="utf-8")
    assert "\n" + frozen in out.read_text(encoding="utf-8")


def test_search_continuous_adiabatic(tmp_path, phonebook_csv):
    out = tmp_path / "report.json"
    code = run_cli(
        ["search", "--db", phonebook_csv, "--target", "3601003",
         "--T", 100, "--method", "continuous", "--out", out]
    )
    assert code == 0
    report = json.loads(out.read_text())
    # 3601003 encodes to 3; ground index 1 is Bob
    assert report["top_outcome"]["key"] == "Bob"
    assert report["top_outcome"]["probability"] >= 0.99
    assert "dt" not in report["parameters"]
    assert report["steps"] % 100 == 0 and report["error_estimate"] <= 1e-5


def test_search_trotter_carries_audit(tmp_path, phonebook_csv):
    out = tmp_path / "report.json"
    code = run_cli(
        ["search", "--db", phonebook_csv, "--target", "3601002",
         "--method", "trotter", "--out", out]
    )
    assert code == 0
    report = json.loads(out.read_text())
    audit = report["fidelity_audit"]
    assert len(audit["per_step"]) == 11
    assert abs(audit["overall"] - 0.991) <= 0.005


def test_search_rejects_three_rows(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("key,value\na,1\nb,2\nc,3\n", encoding="utf-8")
    out = tmp_path / "report.json"
    code = run_cli(["search", "--db", bad, "--target", "1", "--out", out])
    assert code == 2
    assert "power of two" in capsys.readouterr().err
    assert not out.exists()


# Table file name, contents and the error line it draws.
MALFORMED_TABLES = {
    "three-rows": ("db.csv", "key,value\na,1\nb,2\nc,3\n", "row count 3 is not a power of two (>= 2)"),
    "header-only": ("db.csv", "key,value\n", "database must be nonempty"),
    "duplicate-key": ("db.csv", "key,value\na,1\na,2\n", "duplicate key 'a'"),
    "bad-label": ("db.json", '[{"key": "a", "value": "1"}, {"key": "b", "value": "x1"}]',
                  "value label 'x1' is not a decimal integer or real"),
    "empty-key": ("db.csv", "key,value\n,1\nb,2\n", "empty key at row 2"),
    "empty-value": ("db.json", '[{"key": "a", "value": "1"}, {"key": "b", "value": " "}]',
                    "empty value at row 1"),
    "infinite-number": ("db.json", '[{"key": "a", "value": 1}, {"key": "b", "value": 1e400}]',
                        "value label '1e400' is not finite"),
}


@pytest.mark.parametrize("case", MALFORMED_TABLES)
def test_search_refuses_malformed_tables_where_they_enter(tmp_path, capsys, case):
    # Each table is refused once, by its loader or by encode_database.
    name, text, message = MALFORMED_TABLES[case]
    db = tmp_path / name
    db.write_text(text, encoding="utf-8")
    out = tmp_path / "report.json"
    assert run_cli(["search", "--db", db, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_search_missing_file(tmp_path, capsys):
    code = run_cli(["search", "--db", tmp_path / "nope.csv", "--target", "1"])
    assert code == 2


def test_search_strict_rejects_unknown_target(tmp_path, phonebook_csv, capsys):
    out = tmp_path / "report.json"
    code = run_cli(
        ["search", "--db", phonebook_csv, "--target", "5550000", "--strict", "--out", out]
    )
    assert code == 2
    assert not out.exists()


JSON_ROWS = [["Alex", "3601004"], ["Bob", "3601003"], ["Cherry", "3601001"], ["David", "3601002"]]


def write_json_table(path, rows):
    path.write_text(json.dumps([{"key": k, "value": v} for k, v in rows]), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "field,bad",
    [("key", None), ("key", ["x"]), ("key", {"x": 1}), ("value", True), ("value", None)],
)
def test_search_rejects_json_fields_that_are_not_strings_or_numbers(tmp_path, capsys, field, bad):
    rows = [list(row) for row in JSON_ROWS]
    rows[1][0 if field == "key" else 1] = bad
    db = write_json_table(tmp_path / "db.json", rows)
    out = tmp_path / "report.json"
    assert run_cli(["search", "--db", db, "--target", "3601002", "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"element 1 field '{field}'" in err and json.dumps(bad) in err
    assert not out.exists()


def test_search_loads_json_number_keys_and_values_as_text(tmp_path, capsys):
    rows = [(k, int(v)) for k, v in JSON_ROWS]
    rows[1] = (5, 3601003)
    db = write_json_table(tmp_path / "db.json", rows)
    out = tmp_path / "report.json"
    assert run_cli(["search", "--db", db, "--target", "3601003", "--out", out]) == 0
    assert capsys.readouterr().out.startswith("top outcome: 5 (index 1)")
    assert json.loads(out.read_text())["outcomes"][0]["key"] == "5"


def test_search_rejects_bad_method(phonebook_csv, capsys):
    assert run_cli(["search", "--db", phonebook_csv, "--target", "1", "--method", "magic"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_search_rejects_a_missing_option_value(capsys):
    assert run_cli(["search", "--T"]) == 2
    assert "expected one argument" in capsys.readouterr().err


def test_main_runs_many_times_in_one_process(tmp_path, capsys):
    # One shared parser serves every call; no option of one call reaches the next.
    calls = [
        (["search", "--method", "continuous", "--strict", "--target", "3601003",
          "--out", tmp_path / "continuous.json"], 0),
        (["search", "--method", "quantum"], 2),
        (["--help"], 0),
        (["gap-sweep", "--n-min", 2, "--n-max", 2, "--out", tmp_path / "sweep.csv"], 0),
        (["search", "--out", tmp_path / "in_process.json"], 0),
    ]
    for args, code in calls:
        assert run_cli(args) == code, args
    printed = capsys.readouterr().out
    assert cli.build_parser() is cli.build_parser()
    args = cli.build_parser().parse_args(["search"])
    assert (args.method, args.strict, args.target, args.out) == ("discrete", False, "3601002", None)

    src = Path(cli.__file__).parents[1]
    fresh = subprocess.run(
        [sys.executable, "-m", "adiasearch.cli", "search", "--out", tmp_path / "fresh.json"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stderr == ""
    assert printed.splitlines()[-2] == fresh.stdout.splitlines()[0]  # the top outcome line
    assert (tmp_path / "in_process.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()


def test_spectrum_outputs(tmp_path, phonebook_csv):
    out = tmp_path / "trace.csv"
    code = run_cli(
        ["spectrum", "--db", phonebook_csv, "--target", "3601002",
         "--grid", 101, "--out", out]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,E0,E1,E2,E3"
    first = [float(x) for x in lines[1].split(",")]
    last = [float(x) for x in lines[-1].split(",")]
    assert np.allclose(first, [0.0, -2.0, 0.0, 0.0, 2.0], atol=1e-10)
    assert np.allclose(last, [1.0, 0.0, 1.0, 1.0, 4.0], atol=1e-10)
    gap = json.loads((tmp_path / "trace.gap.json").read_text())
    assert gap["ground_degeneracy_at_end"] == 1
    assert gap["min_gap"] == pytest.approx(0.8920, abs=1e-3)


def test_spectrum_multi_solution_degeneracy(tmp_path):
    db = tmp_path / "multi.csv"
    db.write_text("key,value\na,100\nb,200\nc,200\nd,300\n", encoding="utf-8")
    out = tmp_path / "trace.csv"
    code = run_cli(["spectrum", "--db", db, "--target", "200", "--grid", 101, "--out", out])
    assert code == 0
    gap = json.loads((tmp_path / "trace.gap.json").read_text())
    assert gap["ground_degeneracy_at_end"] == 2


def test_interior_degeneracy_is_one_stderr_line_on_every_call(tmp_path, capsys):
    # Rows 0 and 3 store the target and differ in two bits, so at g = 1e-6 the
    # field splits their levels by far less than 1e-9 inside the grid.
    db = tmp_path / "pair.csv"
    db.write_text("key,value\na,5\nb,1\nc,9\nd,5\n", encoding="utf-8")
    args = ["spectrum", "--db", db, "--target", 5, "--g", 1e-6, "--grid", 11, "--out", tmp_path / "t.csv"]
    for _ in range(2):
        assert run_cli(args) == 0
        assert capsys.readouterr().err == "warning: ground level degenerate at interior s=0.9\n"


def test_spectrum_grid_refinement(tmp_path, phonebook_csv):
    gaps = {}
    for grid in (1001, 2001):
        out = tmp_path / f"trace{grid}.csv"
        run_cli(["spectrum", "--db", phonebook_csv, "--target", "3601002",
                 "--grid", grid, "--out", out])
        gaps[grid] = json.loads((tmp_path / f"trace{grid}.gap.json").read_text())["min_gap"]
    assert abs(gaps[1001] - gaps[2001]) < 1e-3


def test_trotter_audit_defaults(tmp_path, capsys):
    out = tmp_path / "audit.json"
    code = run_cli(["trotter-audit", "--out", out])
    assert code == 0
    audit = json.loads(out.read_text())
    per_step = audit["per_step_fidelity"]
    assert len(per_step) == 11
    assert per_step[0] == pytest.approx(1.0, abs=1e-12)
    assert per_step[-1] == pytest.approx(1.0, abs=1e-12)
    assert all(f >= 0.996 for f in per_step)
    assert audit["per_step_pass"] and audit["overall_pass"]
    assert "pass" in capsys.readouterr().out


def test_trotter_audit_finer_steps_improve(tmp_path):
    overall = {}
    for S in (10, 100):
        out = tmp_path / f"audit{S}.json"
        run_cli(["trotter-audit", "--S", S, "--out", out])
        overall[S] = json.loads(out.read_text())["overall_fidelity"]
    assert overall[100] > overall[10]


def test_nmr_compile_defaults(tmp_path, capsys):
    out = tmp_path / "pulses.jsonl"
    code = run_cli(["nmr-compile", "--out", out])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 11
    step0 = json.loads(lines[0])
    assert step0["step"] == 0
    kinds = [op["kind"] for op in step0["ops"]]
    assert kinds == ["rot_x", "rot_x"]
    assert step0["ops"][0]["angle_rad"] == pytest.approx(0.95)
    verify = json.loads((tmp_path / "pulses.verify.json").read_text())
    assert verify["all_within_1e-6"]
    assert verify["min_fidelity"] >= 1 - 1e-6
    assert verify["top_outcome"]["key"] == "David"
    assert verify["top_outcome"]["probability"] >= 0.95


def test_nmr_compile_final_probabilities_sum_to_one_without_renormalization(tmp_path, capsys):
    # 201 pulse programs applied to the state, which is never divided by its norm.
    out = tmp_path / "pulses.jsonl"
    assert run_cli(["nmr-compile", "--S", "200", "--out", out]) == 0
    verify = json.loads((tmp_path / "pulses.verify.json").read_text())
    assert abs(sum(verify["final_probabilities"]) - 1.0) <= 1e-12


def test_nmr_compile_needs_two_qubits(tmp_path, capsys):
    db = tmp_path / "eight.csv"
    rows = "\n".join(f"k{i},{i + 1}" for i in range(8))
    db.write_text("key,value\n" + rows + "\n", encoding="utf-8")
    code = run_cli(["nmr-compile", "--db", db, "--target", "1", "--out", tmp_path / "p.jsonl"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: pulse compilation supports 2-qubit databases, got n=3\n"
    )


@pytest.mark.parametrize(
    "args,frozen",
    [
        ([], "nmr_example_pulses.jsonl"),
        # z rotations, and a negative ZZ angle lifted by a 4/J period
        (["--target", "3601003", "--g", "2", "--S", "12"], "nmr_target_3601003_g2_S12_pulses.jsonl"),
    ],
)
def test_nmr_compile_pulses_are_frozen(tmp_path, args, frozen):
    # Pulses follow from the Pauli coefficients in closed form, with no
    # eigensolver, so their bytes do not depend on the platform.
    out = tmp_path / "pulses.jsonl"
    assert run_cli(["nmr-compile", *args, "--out", out]) == 0
    assert out.read_bytes() == (DATA / frozen).read_bytes()


def test_numeric_failure_maps_to_exit_3(tmp_path, monkeypatch, capsys):
    from adiasearch import cli
    from adiasearch.errors import SweepTimeout

    def boom(*args, **kwargs):
        raise SweepTimeout("probe pass of M=100 steps exceeds the n=10 step ceiling 50")

    monkeypatch.setattr(cli, "gap_scaling_sweep", boom)
    code = run_cli(["gap-sweep", "--n-min", 2, "--n-max", 2, "--out", tmp_path / "s.csv"])
    assert code == 3
    assert "numeric error" in capsys.readouterr().err


def test_stuck_sweep_instance_exits_3_and_writes_no_csv(tmp_path, capsys):
    # An n = 5 instance that reaches 0.9 nowhere on the ladder T = 2^0..2^11.
    out = tmp_path / "sweep.csv"
    code = run_cli(["gap-sweep", "--n-min", 5, "--n-max", 5, "--seed", 256501328, "--out", out])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err == "numeric error: no success by T=2048.0; instance looks stuck\n"
    assert captured.out == ""
    assert not out.exists() and list(tmp_path.iterdir()) == []


def test_state_norm_drift_maps_to_exit_3(tmp_path, monkeypatch, capsys):
    from adiasearch import evolve

    start = evolve.initial_ground_state
    monkeypatch.setattr(evolve, "initial_ground_state", lambda n: start(n) * (1 + 1e-6))
    out = tmp_path / "report.json"
    assert run_cli(["search", "--out", out]) == 3
    assert capsys.readouterr().err.startswith("numeric error: state norm ")
    assert not out.exists()


def test_gap_sweep_deterministic_and_positive(tmp_path):
    out1 = tmp_path / "sweep1.csv"
    out2 = tmp_path / "sweep2.csv"
    assert run_cli(["gap-sweep", "--n-min", 2, "--n-max", 2, "--seed", 5, "--out", out1]) == 0
    assert run_cli(["gap-sweep", "--n-min", 2, "--n-max", 2, "--seed", 5, "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "n,N,min_gap,T_to_success"
    n, N, gap, T = lines[1].split(",")
    assert (int(n), int(N)) == (2, 4)
    assert float(gap) > 0
    assert float(T) > 0


@pytest.mark.parametrize(
    "args",
    [
        ["search", "--S", 0],
        ["search", "--S", -1],
        ["trotter-audit", "--S", -1],
        ["nmr-compile", "--S", -1],
        ["trotter-audit", "--T", -1],
        ["gap-sweep", "--n-min", 2, "--n-max", 2, "--g", 0],
        ["gap-sweep", "--n-min", 3, "--n-max", 2, "--g", 0],
        ["search", "--T", "inf"],
        ["trotter-audit", "--T", "inf"],
        ["nmr-compile", "--T", "inf"],
        ["spectrum", "--g", "inf"],
        # Refused with the value named, before the sweep draws any instance.
        (["gap-sweep", "--n-min", 10, "--n-max", 10, "--grid", 1], "error: need at least 2 grid points, got 1\n"),
        (["gap-sweep", "--seed", -1], "error: seed must be non-negative, got -1\n"),
    ],
)
def test_bad_evolution_parameters_exit_2(tmp_path, capsys, monkeypatch, args):
    from adiasearch import spectrum

    args, err = args if isinstance(args, tuple) else (args, None)
    if err is not None:
        monkeypatch.setattr(spectrum, "default_permutation_instance", None)  # any draw fails
    out = tmp_path / "out.json"
    assert run_cli([*args, "--out", out]) == 2
    captured = capsys.readouterr().err
    assert captured.startswith("error: ")
    assert err is None or captured == err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["search", "--method", "discrete", "--g", "1e308"],
        ["search", "--method", "trotter", "--g", "1e308"],
        ["search", "--method", "continuous", "--g", "1e308"],
        ["search", "--method", "continuous", "--g", "1e150"],
        ["spectrum", "--g", "1e308"],
        ["trotter-audit", "--g", "1e308"],
        ["nmr-compile", "--g", "1e308"],
        # Finite levels whose step phases overflow: a NaN state, NaN fidelities.
        ["search", "--g", "1e307", "--T", "1e3"],
        ["trotter-audit", "--g", "1e307", "--T", "1e3"],
        # Finite step phases past float64 resolution (about 1e150 rad).
        ["search", "--method", "discrete", "--g", "1e150"],
        ["search", "--method", "trotter", "--g", "1e150"],
        ["trotter-audit", "--g", "1e150"],
        ["nmr-compile", "--g", "1e150"],
        # A finite target whose squared distance to the stored codes overflows.
        ["search", "--method", "discrete", "--target", "1e200"],
        ["search", "--method", "trotter", "--target", "1e200"],
        ["search", "--method", "continuous", "--target", "1e200"],
        ["spectrum", "--target", "1e200"],
        # Finite squared distances whose Walsh-Hadamard sums in the Pauli
        # expansion overflow.
        ["nmr-compile", "--target", "1.3e154"],
        ["search", "--target", "1.3e154", "--T", "1e-300"],
    ],
)
def test_overflow_exits_3_and_writes_nothing(tmp_path, capsys, args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli([*args, "--out", tmp_path / "out.json"]) == 3
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert capsys.readouterr().err.startswith("numeric error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
def test_reports_get_the_mode_of_a_plain_open(tmp_path, umask, mode):
    # 0o666 less the umask, for a new report and for one that replaces a file.
    fresh, replaced = tmp_path / "fresh.json", tmp_path / "replaced.json"
    replaced.write_text("old\n", encoding="utf-8")
    replaced.chmod(0o640)
    previous = os.umask(umask)
    try:
        for out in (fresh, replaced):
            assert run_cli(["search", "--out", out]) == 0
    finally:
        os.umask(previous)
    assert fresh.read_bytes() == replaced.read_bytes()
    assert [oct(path.stat().st_mode & 0o777) for path in (fresh, replaced)] == [oct(mode)] * 2


def test_failed_rename_leaves_no_temp_file(tmp_path, capsys):
    # The target is an existing directory, so the rename fails after the write.
    from adiasearch.reporting import atomic_write_text

    target = tmp_path / "report.json"
    target.mkdir()
    with pytest.raises(OSError):
        atomic_write_text(target, "text\n")
    assert run_cli(["search", "--out", target]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert os.listdir(tmp_path) == ["report.json"] and os.listdir(target) == []


def test_reports_take_names_up_to_the_file_name_limit(tmp_path):
    # The temp file's name does not grow with the target's.
    out = tmp_path / ("r" * 245 + ".json")
    assert len(out.name.encode()) == 250
    assert run_cli(["search", "--out", out]) == 0
    assert os.listdir(tmp_path) == [out.name]


def test_trotter_search_warns_when_its_audit_fails(tmp_path, capsys):
    # test_trotter_fidelities_match_expm_at_n6's seeded instance at its n = 6
    # arguments, whose split has lost the search, warns, and its answer is
    # not certified; the README trotter example (per-step minimum 0.996123)
    # does neither. Exit code and report stay.
    from adiasearch.spectrum import default_permutation_instance

    values, _ = default_permutation_instance(6, np.random.default_rng(6))
    table = tmp_path / "n6.csv"
    table.write_text("key,value\n" + "".join(f"k{i},{int(v)}\n" for i, v in enumerate(values)))
    out = tmp_path / "r.json"
    args = ["search", "--method", "trotter", "--db", table, "--target", 1, "--T", 62.7, "--S", 60]
    assert run_cli([*args, "--out", out]) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "warning: split step 2 has fidelity 0.223531 against its exact step, "
        "below the audit's per-step minimum 0.996\n"
        "warning: answer not certified at T=62.7, S=60: top outcome index 48 (p=0.057518) "
        "is not in H(1)'s ground level, whose final population is 0.011730, below 1/2\n"
    )
    assert captured.out.endswith(f"report written to {out}\n")
    assert min(json.loads(out.read_text())["fidelity_audit"]["per_step"]) == pytest.approx(0.223531, abs=1e-6)
    assert run_cli(["search", "--method", "trotter", "--out", out]) == 0
    assert capsys.readouterr().err == ""


def test_reports_refuse_non_finite_numbers(tmp_path, monkeypatch, capsys):
    from adiasearch.errors import NonFiniteResult
    from adiasearch.reporting import dumps_lines, dumps_report

    assert dumps_lines([{"b": 1.0, "a": 2}]) == '{"a": 2, "b": 1.0}\n'
    for bad in (float("nan"), float("inf"), -float("inf")):
        # in a container of scalars, and in one the encoder walks
        for payload in ({"value": bad}, {"value": [1, [2.0, bad]], "other": {}}):
            with pytest.raises(NonFiniteResult):
                dumps_report(payload)
        with pytest.raises(NonFiniteResult):
            dumps_lines([{"value": [bad]}])
    nan_terms = {"n_qubits": 2, "pauli_terms": [{"axes": "II", "coeff": float("nan")}]}
    monkeypatch.setattr(cli, "operator_to_json", lambda H: nan_terms)
    out = tmp_path / "report.json"
    assert run_cli(["search", "--out", out]) == 3
    assert capsys.readouterr().err.startswith("numeric error: report holds a non-finite number")
    assert list(tmp_path.iterdir()) == []


ENCODER_EDGE_PAYLOADS = {
    "empty": {},
    "nested-empty": {"a": [], "b": {}, "c": [[], {}, [[]], [{}]], "d": {"e": {"f": []}}},
    "tuples": {"t": (1, 2.5, (3, ()), ({"k": (None,)},))},
    "strings": {
        "caf\u00e9 \u2603 \U0001f600": "\u00fc\x00\x1f\\\"\u2028",
        'q"k\n\t\x01': {"\x7f\\": ["\"", "\n", "\u00e9"]},
    },
    "numbers": {"f": [-0.0, 0.0, 5e-324, 1e300, -1e300, 0.1, 1 / 3], "i": [0, -1, 10**30, -(2**63)]},
    "constants": {"b": [True, False], "n": None, "mixed": [True, None, 1, 1.0, "1", [False]]},
    "deep": {"a": [1, [2, [3, {"b": [4, {"c": None}]}]]], "z": {"y": {"x": {"w": 1.5}}}},
    "numpy": {"x": np.float64(0.1), "y": [np.float64(-0.0), {"z": np.float64(2.5e-300)}]},
}


@pytest.mark.parametrize("payload", ENCODER_EDGE_PAYLOADS.values(), ids=ENCODER_EDGE_PAYLOADS.keys())
def test_report_text_is_json_dumps_byte_for_byte(payload):
    # dumps_report encodes each container of scalars with json's C encoder and
    # walks the rest; its text must be the indenting pure-Python encoder's.
    from adiasearch.reporting import dumps_report

    assert dumps_report(payload) == json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def test_every_cli_report_is_json_dumps_byte_for_byte(tmp_path, monkeypatch, capsys):
    # The payload of every JSON report a command writes: search under each
    # method (and a JSON table), the gap report, the trotter audit and the
    # nmr-compile verification.
    from adiasearch import reporting

    payloads, dumps_report = [], reporting.dumps_report

    def recorded(payload):
        payloads.append(payload)
        return dumps_report(payload)

    monkeypatch.setattr(reporting, "dumps_report", recorded)
    db = write_json_table(tmp_path / "db.json", JSON_ROWS)
    calls = [
        *(["search", "--method", method] for method in ("continuous", "discrete", "trotter")),
        ["search", "--db", db],
        ["spectrum", "--grid", 11],
        ["trotter-audit"],
        ["nmr-compile"],
    ]
    for i, args in enumerate(calls):
        assert run_cli([*args, "--out", tmp_path / f"out{i}.json"]) == 0, capsys.readouterr().err
    assert len(payloads) == len(calls)
    for payload in payloads:
        assert dumps_report(payload) == json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "no-c-encoder"])
def test_reports_need_no_json_c_encoder(tmp_path, c_encoder):
    # Without the _json extension, json.encoder binds c_make_encoder to None;
    # a search still writes the report bytes it writes with the C encoder, and
    # a non-finite payload is still refused as such.
    script = (
        ("import json.encoder\njson.encoder.c_make_encoder = None\n" if not c_encoder else "")
        + "import sys\n"
        "import pytest\n"
        "from adiasearch.cli import main\n"
        "from adiasearch.errors import NonFiniteResult\n"
        "from adiasearch.reporting import dumps_report\n"
        "with pytest.raises(NonFiniteResult):\n"
        "    dumps_report({'value': [1, {'x': float('nan')}]})\n"
        "sys.exit(main(['search', '--out', sys.argv[1]]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = tmp_path / "fresh.json"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert run_cli(["search", "--out", tmp_path / "report.json"]) == 0
    assert out.read_bytes() == (tmp_path / "report.json").read_bytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_search_warns_when_its_answer_is_not_certified(tmp_path, capsys, seed):
    # n = 7 permutation tables of 1..128, target 1, at T = 100, S = 200: seeds
    # 0 and 1 name a wrong key and seed 2 the right one at p = 0.118, each with
    # under 1/2 of the final state in H(1)'s ground level. Exit code and
    # report bytes stay those of a search without the line.
    values = np.random.default_rng(seed).permutation(np.arange(1, 129))
    table = tmp_path / "n7.csv"
    table.write_text("key,value\n" + "".join(f"k{i},{v}\n" for i, v in enumerate(values)))
    out = tmp_path / "r.json"
    assert run_cli(["search", "--db", table, "--target", 1, "--T", 100, "--S", 200, "--out", out]) == 0
    report = json.loads(out.read_text())
    top, final = report["top_outcome"], report["ground_population_trace"][-1][1]
    solution = int(np.flatnonzero(values == 1)[0])
    assert (top["index"] == solution) == (seed == 2)
    assert final < 0.5
    where = "in" if seed == 2 else "not in"
    assert capsys.readouterr().err == (
        f"warning: answer not certified at T=100, S=200: top outcome index {top['index']} "
        f"(p={top['probability']:.6f}) is {where} H(1)'s ground level, whose final population "
        f"is {final:.6f}, below 1/2\n"
    )


def test_search_certifies_either_solution_of_a_two_solution_table(tmp_path, capsys):
    # The final state splits between the two rows that store the target,
    # 0.515 and 0.483 at T = 60, and the top one is certified.
    table = tmp_path / "two.csv"
    table.write_text("key,value\n" + "".join(f"k{i},{v}\n" for i, v in enumerate(TWO_SOLUTION_LABELS)))
    out = tmp_path / "r.json"
    assert run_cli(["search", "--db", table, "--target", 9, "--T", 60, "--S", 200, "--out", out]) == 0
    assert capsys.readouterr().err == ""
    outcomes = json.loads(out.read_text())["outcomes"]
    assert sorted(o["key"] for o in outcomes[:2]) == ["k8", "k9"]


@pytest.mark.parametrize("method", ["discrete", "trotter", "continuous"])
def test_readme_search_certifies_its_answer(tmp_path, capsys, method):
    assert run_cli(["search", "--method", method, "--out", tmp_path / "r.json"]) == 0
    captured = capsys.readouterr()
    assert "top outcome: David (index 3)" in captured.out
    assert captured.err == ""


LAYERS = ("database", "operators", "evolve", "spectrum", "nmr", "reporting")


def test_every_public_layer_function_serves_a_command(tmp_path, capsys):
    # A public function is a module attribute defined in that module whose
    # name has no leading underscore, as perfbench's tracer counts them.
    modules = {name: importlib.import_module(f"adiasearch.{name}") for name in LAYERS}
    public = {
        obj.__code__: f"{name}.{attr}"
        for name, module in modules.items()
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }
    db = write_json_table(tmp_path / "db.json", JSON_ROWS)
    calls = [
        *(["search", "--method", method] for method in ("continuous", "discrete", "trotter")),
        ["search", "--db", db],
        ["spectrum", "--grid", 11],
        ["trotter-audit"],
        ["nmr-compile"],
        ["gap-sweep", "--n-min", 2, "--n-max", 2],
    ]
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [run_cli([*args, "--out", tmp_path / f"out{i}"]) for i, args in enumerate(calls)]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(calls), capsys.readouterr().err
    unused = sorted(name for code, name in public.items() if code not in called)
    assert not unused, f"no command calls {', '.join(unused)}"
