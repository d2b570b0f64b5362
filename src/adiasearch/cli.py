"""Command-line surface for the adiabatic search pipeline.

Subcommands: search, spectrum, trotter-audit, nmr-compile, gap-sweep.
Exit codes: 0 success, 2 input error, 3 numeric error.
"""

from __future__ import annotations

import os

# Cap BLAS pools before numpy loads; ADIA_THREADS bounds internal parallelism.
_threads = os.environ.get("ADIA_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import sys
from importlib.resources import files
from pathlib import Path

import numpy as np

from . import database, nmr, reporting
from .errors import InputError, NumericError, WrongQubitCount
from .evolve import (
    RK4_STEPS,
    EvolutionPlan,
    QuantumState,
    evolve_continuous,
    evolve_discrete_exact,
    evolve_trotter,
    initial_ground_state,
    measure_probabilities,
    operator_fidelity,
    trotter_fidelity_audit,
    trotter_step,
)
from .operators import operator_to_json, search_hamiltonian
from .spectrum import gap_scaling_sweep, min_gap, trace_spectrum

DEFAULT_T = 10.45
DEFAULT_S = 10
DEFAULT_G = 1.0
DEFAULT_GRID = 1001
DEFAULT_J_HZ = 214.5

# Split-step audit thresholds: every step's fidelity at least AUDIT_PER_STEP_MIN,
# the whole product's within AUDIT_OVERALL_TOL of AUDIT_OVERALL.
AUDIT_PER_STEP_MIN = 0.996
AUDIT_OVERALL = 0.991
AUDIT_OVERALL_TOL = 0.005
# Every pulse program must reach fidelity 1 - NMR_VERIFY_TOL against its split
# step; the verify report's key "all_within_1e-6" names this value.
NMR_VERIFY_TOL = 1e-6

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def bundled_database_path() -> str:
    """Path of the packaged example phone book."""
    return str(files("adiasearch").joinpath("data/phonebook.csv"))


def _load_instance(args: argparse.Namespace):
    """The parsed database, the search instance, and the report parameters that name them."""
    path = args.db or bundled_database_path()
    db = database.encode_database(database.load_rows(path))
    target = database.encode_target(db, args.target, strict=args.strict)
    H = search_hamiltonian(db, target, args.g)
    parameters = {
        "database_path": path,
        "n_qubits": db.n_qubits,
        "target_label": args.target,
        "target_code": target,
        "target_in_database": database.is_in_database(db, args.target),
        "g": args.g,
    }
    if "T" in args:
        parameters.update(T=args.T, S=args.S, tau=args.T / (args.S + 1))
    return db, H, parameters


def cmd_search(args: argparse.Namespace) -> int:
    """Run the full pipeline and write the evolution report with decoded outcomes."""
    db, H, parameters = _load_instance(args)
    plan = EvolutionPlan(T=args.T, S=args.S)
    if args.method == "continuous":
        report = evolve_continuous(H, plan)
    elif args.method == "discrete":
        report = evolve_discrete_exact(H, plan)
    else:
        report = evolve_trotter(H, plan)

    outcomes = database.decode_outcome(db, [float(p) for p in report.probabilities])
    parameters["method"] = args.method
    if args.method == "continuous":
        parameters["dt"] = args.T / RK4_STEPS
    payload = reporting.evolution_report_payload(report, parameters, outcomes)
    payload["problem_hamiltonian"] = operator_to_json(H.problem_operator())
    out = args.out or "search_report.json"
    reporting.atomic_write_text(out, reporting.dumps_report(payload))
    top = outcomes[0]
    print(f"top outcome: {top.key} (index {top.index}) p={top.probability:.6f}")
    print(f"report written to {out}")
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    """Write the level-trace CSV and the gap report JSON."""
    db, H, parameters = _load_instance(args)
    trace = trace_spectrum(H, args.grid)
    gap = min_gap(trace)
    out = Path(args.out or "spectrum.csv")
    reporting.atomic_write_text(out, reporting.trace_to_csv(trace))
    parameters["grid_points"] = args.grid
    gap_out = out.with_suffix(".gap.json")
    reporting.atomic_write_text(
        gap_out, reporting.dumps_report(reporting.gap_report_payload(gap, parameters))
    )
    print(
        f"min gap {gap.min_gap:.6f} at s={gap.s_at_min:.4f}, "
        f"end degeneracy {gap.ground_degeneracy_at_end}"
    )
    print(f"trace written to {out}, gap report to {gap_out}")
    return EXIT_OK


def cmd_trotter_audit(args: argparse.Namespace) -> int:
    """Audit split fidelities against the per-step and overall thresholds."""
    _, H, parameters = _load_instance(args)
    plan = EvolutionPlan(T=args.T, S=args.S)
    audit = trotter_fidelity_audit(H, plan)
    per_step_ok = all(f >= AUDIT_PER_STEP_MIN for f in audit["per_step"])
    overall_ok = abs(audit["overall"] - AUDIT_OVERALL) <= AUDIT_OVERALL_TOL
    payload = {
        "schema_version": reporting.SCHEMA_VERSION,
        "parameters": parameters,
        "per_step_fidelity": audit["per_step"],
        "overall_fidelity": audit["overall"],
        "thresholds": {
            "per_step_min": AUDIT_PER_STEP_MIN,
            "overall": [AUDIT_OVERALL - AUDIT_OVERALL_TOL, AUDIT_OVERALL + AUDIT_OVERALL_TOL],
        },
        "per_step_pass": per_step_ok,
        "overall_pass": overall_ok,
    }
    out = args.out or "trotter_audit.json"
    reporting.atomic_write_text(out, reporting.dumps_report(payload))
    print(
        f"per-step min {min(audit['per_step']):.6f} "
        f"({'pass' if per_step_ok else 'FAIL'} vs {AUDIT_PER_STEP_MIN}), "
        f"overall {audit['overall']:.6f} "
        f"({'pass' if overall_ok else 'FAIL'} vs {AUDIT_OVERALL} +/- {AUDIT_OVERALL_TOL})"
    )
    print(f"audit written to {out}")
    return EXIT_OK


def cmd_nmr_compile(args: argparse.Namespace) -> int:
    """Compile all steps to pulses, verify each against its split unitary."""
    db, H, parameters = _load_instance(args)
    if db.n_qubits != 2:
        raise WrongQubitCount(
            f"pulse compilation supports 2-qubit databases, got n={db.n_qubits}"
        )
    plan = EvolutionPlan(T=args.T, S=args.S)
    system = nmr.SpinSystem(J=DEFAULT_J_HZ)
    sequences = nmr.compile_full(H, plan, system)

    fidelities = []
    psi = initial_ground_state(2).amplitudes
    for seq in sequences:
        U_seq = nmr.simulate_sequence(seq)
        fidelities.append(operator_fidelity(trotter_step(H, plan, seq.step_index), U_seq))
        psi = U_seq @ psi
    probs = measure_probabilities(QuantumState(n_qubits=2, amplitudes=psi / np.linalg.norm(psi)))
    outcomes = database.decode_outcome(db, [float(p) for p in probs])

    parameters["J_hz"] = system.J
    verify_payload = {
        "schema_version": reporting.SCHEMA_VERSION,
        "parameters": parameters,
        "per_step_fidelity": fidelities,
        "min_fidelity": min(fidelities),
        "all_within_1e-6": all(f >= 1.0 - NMR_VERIFY_TOL for f in fidelities),
        "final_probabilities": [float(p) for p in probs],
        "top_outcome": reporting.outcomes_payload(outcomes)[0],
    }
    # Both texts are made before either file is written, so a refused one writes neither.
    pulses_text = reporting.dumps_lines([nmr.sequence_to_json(s) for s in sequences])
    verify_text = reporting.dumps_report(verify_payload)
    out = Path(args.out or "pulses.jsonl")
    verify_out = out.with_suffix(".verify.json")
    reporting.atomic_write_text(out, pulses_text)
    reporting.atomic_write_text(verify_out, verify_text)
    print(
        f"{len(sequences)} step sequences, min fidelity vs split step "
        f"{min(fidelities):.9f}; top outcome {outcomes[0].key} p={outcomes[0].probability:.6f}"
    )
    print(f"pulses written to {out}, verification to {verify_out}")
    return EXIT_OK


def cmd_gap_sweep(args: argparse.Namespace) -> int:
    """Sweep min gap and time-to-success over seeded permutation instances."""
    rows = gap_scaling_sweep(
        list(range(args.n_min, args.n_max + 1)),
        seed=args.seed,
        g=args.g,
        grid_points=args.grid,
    )
    out = args.out or "gap_sweep.csv"
    reporting.atomic_write_text(out, reporting.sweep_to_csv(rows))
    print(f"{len(rows)} rows written to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adiasearch",
        description="Oracle-free adiabatic database search simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_evolution=True):
        p.add_argument("--db", default=None, help="database CSV/JSON path (default: bundled phone book)")
        p.add_argument("--target", default="3601002", help="value label to search for")
        p.add_argument("--g", type=float, default=DEFAULT_G, help="transverse-field coupling strength")
        if with_evolution:
            p.add_argument("--T", type=float, default=DEFAULT_T, help="total evolution time")
            p.add_argument("--S", type=int, default=DEFAULT_S, help="step count parameter (S+1 steps)")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--strict", action="store_true", help="reject out-of-database targets")

    p_search = sub.add_parser("search", help="run the search pipeline end to end")
    p_search.set_defaults(run=cmd_search)
    add_common(p_search)
    p_search.add_argument(
        "--method",
        choices=("continuous", "discrete", "trotter"),
        default="discrete",
        help="evolution method",
    )

    p_spec = sub.add_parser("spectrum", help="level trace CSV and min-gap report")
    p_spec.set_defaults(run=cmd_spectrum)
    add_common(p_spec, with_evolution=False)
    p_spec.add_argument("--grid", type=int, default=DEFAULT_GRID, help="number of s grid points")

    p_audit = sub.add_parser("trotter-audit", help="per-step and overall split fidelities")
    p_audit.set_defaults(run=cmd_trotter_audit)
    add_common(p_audit)

    p_nmr = sub.add_parser("nmr-compile", help="compile steps to NMR pulses and verify")
    p_nmr.set_defaults(run=cmd_nmr_compile)
    add_common(p_nmr)

    p_sweep = sub.add_parser("gap-sweep", help="gap and time-to-success scaling table")
    p_sweep.set_defaults(run=cmd_gap_sweep)
    p_sweep.add_argument("--g", type=float, default=DEFAULT_G)
    p_sweep.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p_sweep.add_argument("--seed", type=int, default=0, help="instance generator seed")
    p_sweep.add_argument("--n-min", type=int, default=2, help="smallest register size")
    p_sweep.add_argument("--n-max", type=int, default=5, help="largest register size")
    p_sweep.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Overflow and NaN are caught as values (drift check, state finiteness,
        # report serialization) and end in exit 3, so numpy need not warn first.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.run(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
