"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest -s tests/test_acceptance.py``).

Criterion 5 is implemented exactly as stated and is expected to fail: the
quantity that contracts by ~4x when the step count doubles is the product's
operator-norm error, while 1 - fidelity is quadratic in it and contracts by
~16x. The strict xfail keeps the measured discrepancy on record.
"""

import time

import numpy as np
import pytest

from adiasearch import evolve
from adiasearch.cli import main as cli_main
from adiasearch.database import EncodedDatabase
from adiasearch.evolve import (
    EvolutionPlan,
    evolve_continuous,
    evolve_discrete_exact,
    initial_ground_state,
    operator_fidelity,
    trotter_fidelity_audit,
    trotter_step,
)
from adiasearch.nmr import compile_full, simulate_sequence
from adiasearch.operators import SearchHamiltonian, search_hamiltonian
from adiasearch.spectrum import trace_spectrum
from conftest import expm_step

REFERENCE_POPULATIONS = np.array([0.0, 0.014, 0.014, 0.972])


def report_line(number: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {description}: {status}{suffix}")


@pytest.fixture(scope="module")
def instance(request):
    db = EncodedDatabase(
        keys=("Alex", "Bob", "Cherry", "David"),
        values=(4.0, 3.0, 1.0, 2.0),
        codes={3601001.0: 1.0, 3601002.0: 2.0, 3601003.0: 3.0, 3601004.0: 4.0},
    )
    return db, search_hamiltonian(db, 2.0, g=1.0)


@pytest.fixture(scope="module")
def reference_plan():
    return EvolutionPlan(T=10.45, S=10)


def test_criterion_1_worked_example_populations(instance, reference_plan):
    _, H = instance
    start = time.perf_counter()
    report = evolve_discrete_exact(H, reference_plan)
    elapsed = time.perf_counter() - start
    deviation = np.max(np.abs(report.probabilities - REFERENCE_POPULATIONS))
    ok = deviation <= 0.01 and elapsed < 1.0
    report_line(
        1, "discrete-exact populations within 0.01 of (0, 0.014, 0.014, 0.972)",
        ok, f"max dev {deviation:.4f}, {elapsed * 1e3:.0f} ms",
    )
    assert deviation <= 0.01
    assert elapsed < 1.0


def test_criterion_2_trotter_audit(instance, reference_plan):
    _, H = instance
    audit = trotter_fidelity_audit(H, reference_plan)
    per_step = audit["per_step"]
    endpoints_exact = (
        per_step[0] == pytest.approx(1.0, abs=1e-12)
        and per_step[-1] == pytest.approx(1.0, abs=1e-12)
    )
    ok = (
        all(f >= 0.996 for f in per_step)
        and abs(audit["overall"] - 0.991) <= 0.005
        and endpoints_exact
    )
    report_line(
        2, "per-step fidelity >= 0.996, overall 0.991 +/- 0.005",
        ok, f"min step {min(per_step):.6f}, overall {audit['overall']:.6f}",
    )
    assert all(f >= 0.996 for f in per_step)
    assert abs(audit["overall"] - 0.991) <= 0.005
    assert endpoints_exact


def test_criterion_3_spectrum_endpoints(instance):
    _, H = instance
    trace = trace_spectrum(H, 101)
    dev0 = np.max(np.abs(trace.levels[0] - np.array([-2.0, 0.0, 0.0, 2.0])))
    dev1 = np.max(np.abs(trace.levels[-1] - np.array([0.0, 1.0, 1.0, 4.0])))
    ok = dev0 <= 1e-9 and dev1 <= 1e-9
    report_line(
        3, "spectrum rows at s=0 and s=1 equal (-2,0,0,2) and (0,1,1,4)",
        ok, f"devs {dev0:.2e}, {dev1:.2e}",
    )
    assert dev0 <= 1e-9
    assert dev1 <= 1e-9


def test_criterion_4_adiabatic_limit(instance):
    _, H = instance
    V, count = evolve._eigensystem(np.diag(H.d))
    pops = []
    for T in (5.0, 10.45, 20.0, 40.0, 100.0):
        report = evolve_continuous(H, EvolutionPlan(T=T, S=10))
        pops.append(evolve._ground_share(count, V.T @ report.final_state.amplitudes))
    increasing = all(b > a for a, b in zip(pops, pops[1:]))
    ok = increasing and pops[-1] >= 0.99
    report_line(
        4, "ground population strictly increasing in T and >= 0.99 at T=100",
        ok, "pops " + ", ".join(f"{p:.4f}" for p in pops),
    )
    assert increasing
    assert pops[-1] >= 0.99


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated contraction [3.5, 4.5] applies to the operator-norm error, "
        "not to 1 - fidelity, which is quadratic in it and contracts ~16x"
    ),
)
def test_criterion_5_trotter_convergence_order(instance):
    _, H = instance

    def products(S):
        plan = EvolutionPlan(T=10.45, S=S)
        Ue = np.eye(4, dtype=complex)
        Ut = np.eye(4, dtype=complex)
        for s in range(S + 1):
            Ue = expm_step(H, plan, s) @ Ue
            Ut = trotter_step(H, plan, s) @ Ut
        return operator_fidelity(Ue, Ut)

    ratio = (1 - products(10)) / (1 - products(21))
    ok = 3.5 <= ratio <= 4.5
    report_line(
        5, "1 - overall fidelity shrinks by 3.5-4.5x from S=10 to S=21",
        ok, f"measured ratio {ratio:.2f}",
    )
    assert 3.5 <= ratio <= 4.5


def test_criterion_6_multi_solution(instance):
    values = np.array([1.0, 2.0, 2.0, 3.0])
    H = SearchHamiltonian(2, 1.0, (values - 2.0) ** 2)
    report = evolve_continuous(H, EvolutionPlan(T=100.0, S=10))
    expected = np.array([0.0, 0.5, 0.5, 0.0])
    deviation = np.max(np.abs(report.probabilities - expected))
    ok = deviation <= 0.02
    report_line(
        6, "multi-solution populations within 0.02 of (0, 0.5, 0.5, 0)",
        ok, f"max dev {deviation:.4f}",
    )
    assert deviation <= 0.02


def test_criterion_7_pulse_compilation(instance, reference_plan):
    _, H = instance
    sequences = compile_full(H, reference_plan)
    fidelities = [
        operator_fidelity(
            simulate_sequence(seq), trotter_step(H, reference_plan, seq.step_index)
        )
        for seq in sequences
    ]
    psi = initial_ground_state(2)
    for seq in sequences:
        psi = simulate_sequence(seq) @ psi
    probs = np.abs(psi) ** 2
    ok = min(fidelities) >= 1 - 1e-6 and np.argmax(probs) == 3 and probs[3] >= 0.95
    report_line(
        7, "compiled steps match split unitaries; compiled run finds |11>",
        ok, f"min fidelity {min(fidelities):.9f}, p(|11>) {probs[3]:.4f}",
    )
    assert min(fidelities) >= 1 - 1e-6
    assert int(np.argmax(probs)) == 3
    assert probs[3] >= 0.95


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(98021)
    worst = 1.0
    for _ in range(20):
        n = int(rng.integers(2, 4))
        N = 2**n
        values = rng.permutation(np.arange(1, N + 1)).astype(float)
        target = float(values[rng.integers(0, N)])
        brute_force = int(np.argmin((values - target) ** 2))
        H = SearchHamiltonian(n, 1.0, (values - target) ** 2)
        assert int(np.argmin(H.d)) == brute_force
        report = evolve_discrete_exact(H, EvolutionPlan(T=200.0, S=200))
        worst = min(worst, float(report.probabilities[brute_force]))
    ok = worst >= 0.99
    report_line(
        8, "20 seeded instances: diagonal argmin matches brute force, p >= 0.99",
        ok, f"worst p {worst:.4f}",
    )
    assert worst >= 0.99


# Each command's argument list and the files it writes under --out's stem.
DETERMINISM_COMMANDS = {
    "search-discrete": (["search", "--method", "discrete"], ["out.json"]),
    "search-continuous": (["search", "--method", "continuous"], ["out.json"]),
    "search-trotter": (["search", "--method", "trotter"], ["out.json"]),
    "spectrum": (["spectrum"], ["out.csv", "out.gap.json"]),
    "trotter-audit": (["trotter-audit"], ["out.json"]),
    "nmr-compile": (["nmr-compile"], ["out.jsonl", "out.verify.json"]),
    "gap-sweep": (["gap-sweep", "--n-min", "2", "--n-max", "2", "--seed", "3"], ["out.csv"]),
}


@pytest.mark.parametrize("command", list(DETERMINISM_COMMANDS))
def test_criterion_9_determinism(tmp_path, phonebook_csv, command):
    argv, written = DETERMINISM_COMMANDS[command]
    if argv[0] != "gap-sweep":
        argv = [*argv, "--db", str(phonebook_csv), "--target", "3601002"]
    runs = []
    for name in ("a", "b"):
        run_dir = tmp_path / name
        run_dir.mkdir()
        assert cli_main([*argv, "--out", str(run_dir / written[0])]) == 0
        runs.append({p.name: p.read_bytes() for p in run_dir.iterdir()})
    ok = runs[0] == runs[1]
    report_line(9, f"{command} outputs byte-identical across reruns", ok, ", ".join(written))
    assert sorted(runs[0]) == sorted(written)
    assert runs[0] == runs[1]
