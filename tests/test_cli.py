import json
import warnings

import numpy as np
import pytest

from adiasearch.cli import bundled_database_path, main


def run_cli(args):
    return main([str(a) for a in args])


def test_bundled_database_matches_worked_example():
    from adiasearch.database import encode_database, load_rows

    db = encode_database(load_rows(bundled_database_path()))
    assert db.values == (4.0, 3.0, 1.0, 2.0)


def test_search_defaults(tmp_path, capsys, phonebook_csv):
    out = tmp_path / "report.json"
    code = run_cli(["search", "--db", phonebook_csv, "--target", "3601002", "--out", out])
    assert code == 0
    printed = capsys.readouterr().out
    assert "David" in printed
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
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


def test_search_rejects_bad_method(phonebook_csv):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["search", "--db", phonebook_csv, "--target", "1", "--method", "magic"])
    assert excinfo.value.code == 2


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


def test_nmr_compile_needs_two_qubits(tmp_path, capsys):
    db = tmp_path / "eight.csv"
    rows = "\n".join(f"k{i},{i + 1}" for i in range(8))
    db.write_text("key,value\n" + rows + "\n", encoding="utf-8")
    code = run_cli(["nmr-compile", "--db", db, "--target", "1", "--out", tmp_path / "p.jsonl"])
    assert code == 2


def test_numeric_failure_maps_to_exit_3(tmp_path, monkeypatch, capsys):
    from adiasearch import cli
    from adiasearch.errors import SweepTimeout

    def boom(*args, **kwargs):
        raise SweepTimeout("instance exceeded its wall-clock cap")

    monkeypatch.setattr(cli, "gap_scaling_sweep", boom)
    code = run_cli(["gap-sweep", "--n-min", 2, "--n-max", 2, "--out", tmp_path / "s.csv"])
    assert code == 3
    assert "numeric error" in capsys.readouterr().err


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
        ["trotter-audit", "--T", -1],
        ["gap-sweep", "--n-min", 2, "--n-max", 2, "--g", 0],
        ["gap-sweep", "--n-min", 3, "--n-max", 2, "--g", 0],
        ["search", "--T", "inf"],
        ["trotter-audit", "--T", "inf"],
        ["nmr-compile", "--T", "inf"],
        ["spectrum", "--g", "inf"],
    ],
)
def test_bad_evolution_parameters_exit_2(tmp_path, capsys, args):
    out = tmp_path / "out.json"
    assert run_cli([*args, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
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
    ],
)
def test_overflow_exits_3_and_writes_nothing(tmp_path, capsys, args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli([*args, "--out", tmp_path / "out.json"]) == 3
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert capsys.readouterr().err.startswith("numeric error: ")
    assert list(tmp_path.iterdir()) == []


def test_reports_refuse_non_finite_numbers():
    from adiasearch.errors import NonFiniteResult
    from adiasearch.reporting import dumps_lines, dumps_report

    assert dumps_lines([{"b": 1.0, "a": 2}]) == '{"a": 2, "b": 1.0}\n'
    for bad in (float("nan"), float("inf")):
        with pytest.raises(NonFiniteResult):
            dumps_report({"value": bad})
        with pytest.raises(NonFiniteResult):
            dumps_lines([{"value": [bad]}])
