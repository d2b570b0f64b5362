"""Output checks against references computed here, independently of the package.

Every check runs outside the timed region and raises ``CheckFailed`` with a
one-line reason. The references rebuild each instance from the input files
(rank codes, target code, ``g * sum X_k`` and ``diag((codes - t)^2)``) and use
``scipy.linalg.expm`` step unitaries, ``numpy.linalg.eigvalsh``, and a
fourth-order Magnus propagator whose step count is doubled until two
successive results agree.
"""

from __future__ import annotations

import json
import re
from functools import reduce
from pathlib import Path

import numpy as np
from scipy.linalg import expm

PROB_TOL = 1e-8  # step-unitary products, and the pulse program against them
FIDELITY_TOL = 1e-9
GAP_TOL = 1e-9
CONTINUOUS_TOL = 1e-4  # fixed-step RK4 against the converged reference: a tenth of the README's last digit
CONVERGED_TOL = 1e-7  # step-doubling agreement of the Magnus reference
MAGNUS_MAX_STEPS = 2**17
SUCCESS = 0.9


# A known defect of the package: fixed-step RK4, in continuous search and in
# the time-to-success probes of gap-sweep, drifts or goes unstable as ||Hp||
# grows (exit 3) and is off the converged answer near its stability limit.
# Such failures count as failed operations; a result off by RK4_DEFECT or
# more, or any other failure, also makes the run incorrect.
RK4_DEFECT = 1e-2


class CheckFailed(Exception):
    """An operation's output disagrees with its reference; ``known`` marks the RK4 defect."""

    def __init__(self, message: str, known: bool = False):
        super().__init__(message)
        self.known = known


# What the CLI prints on exit 3 when fixed-step RK4 fails: norm drift
# (StepTooLarge), in a continuous search or a time-to-success probe, or a
# gap-sweep whose probes never reach the threshold (SweepTimeout).
RK4_DRIFT = re.compile(r"numeric error: norm drifted to \S+ at t=\S+; reduce dt")
RK4_STUCK = re.compile(r"numeric error: no success by T=\S+; instance looks stuck")


def rk4_defect_exit(op, rc, last_line: str) -> bool:
    """Exit 3 from an operation that runs fixed-step RK4, with one of its failure messages."""
    if rc != 3 or op.expect != 0:
        return False
    if op.kind == "sweep":
        return bool(RK4_DRIFT.fullmatch(last_line) or RK4_STUCK.fullmatch(last_line))
    return op.method == "continuous" and bool(RK4_DRIFT.fullmatch(last_line))


def rank_codes(labels) -> np.ndarray:
    """Code i + 1 for the i-th smallest distinct number, as the README specifies."""
    nums = [float(v) for v in labels]
    rank = {v: i + 1 for i, v in enumerate(sorted(set(nums)))}
    return np.array([rank[v] for v in nums], dtype=float)


def target_code(labels, target: str) -> float:
    """Stored code of a stored number, else the piecewise-linear extension of number -> code."""
    known = sorted(set(float(v) for v in labels))
    num = float(target)
    if num in known:
        return float(known.index(num) + 1)
    if len(known) == 1:
        return 1.0 + num - known[0]
    i = int(np.searchsorted(known, num)) - 1
    i = min(max(i, 0), len(known) - 2)
    return (i + 1) + (num - known[i]) / (known[i + 1] - known[i])


def nearest(labels, target: str) -> list[int]:
    """Brute force: indices of every stored number closest to the target."""
    dist = [abs(float(v) - float(target)) for v in labels]
    best = min(dist)
    return [i for i, d in enumerate(dist) if d == best]


def transverse_field(n: int, g: float = 1.0) -> np.ndarray:
    X, I = np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)
    return g * sum(reduce(np.kron, [X if j == k else I for j in range(n)]) for k in range(n))


def initial_state(n: int) -> np.ndarray:
    signs = np.array([(-1) ** bin(j).count("1") for j in range(2**n)], dtype=complex)
    return signs / np.sqrt(2**n)


def instance(labels, target: str) -> tuple[np.ndarray, np.ndarray]:
    """Dense ``Hi`` and the diagonal of ``Hp`` for a table and a target label."""
    n = len(labels).bit_length() - 1
    return transverse_field(n), (rank_codes(labels) - target_code(labels, target)) ** 2


def step_probabilities(Hi: np.ndarray, hp: np.ndarray, T: float, S: int, method: str) -> np.ndarray:
    """Populations after the S + 1 exact (``discrete``) or split (``trotter``) step unitaries."""
    psi = initial_state(len(hp).bit_length() - 1)
    for U in step_unitaries(Hi, hp, T, S, method):
        psi = U @ psi
    return np.abs(psi) ** 2


def step_unitaries(Hi: np.ndarray, hp: np.ndarray, T: float, S: int, method: str):
    tau = T / (S + 1)
    Hp = np.diag(hp)
    for s in range(S + 1):
        x = s / S
        if method == "discrete":
            yield expm(-1j * tau * ((1 - x) * Hi + x * Hp))
        else:
            half = expm(-0.5j * tau * (1 - x) * Hi)
            yield half @ np.diag(np.exp(-1j * tau * x * hp)) @ half


def fidelity(U: np.ndarray, V: np.ndarray) -> float:
    return float(abs(np.trace(U.conj().T @ V)) / U.shape[0])


def magnus4(Hi: np.ndarray, hp: np.ndarray, T: float, steps: int) -> np.ndarray:
    """Final state of i dpsi/dt = H(t/T) psi by fourth-order Magnus steps (Gauss points)."""
    Hp = np.diag(hp)
    h = T / steps
    c = np.sqrt(3.0) / 6.0
    psi = initial_state(len(hp).bit_length() - 1)
    for m in range(steps):
        H1 = Hi + ((m + 0.5 - c) / steps) * (Hp - Hi)
        H2 = Hi + ((m + 0.5 + c) / steps) * (Hp - Hi)
        K = 0.5 * h * (H1 + H2) - 1j * (np.sqrt(3.0) / 12.0) * h * h * (H2 @ H1 - H1 @ H2)
        w, V = np.linalg.eigh(K)
        psi = V @ (np.exp(-1j * w) * (V.conj().T @ psi))
    return psi


def converged_probabilities(Hi: np.ndarray, hp: np.ndarray, T: float) -> tuple[np.ndarray, float]:
    """Magnus populations with doubled step counts until two agree; returns (p, difference)."""
    steps = max(32, int(np.ceil(2 * T)))
    prev = np.abs(magnus4(Hi, hp, T, steps)) ** 2
    while True:
        steps *= 2
        cur = np.abs(magnus4(Hi, hp, T, steps)) ** 2
        diff = float(np.max(np.abs(cur - prev)))
        if diff <= CONVERGED_TOL:
            return cur, diff
        if steps >= MAGNUS_MAX_STEPS:
            raise CheckFailed(f"reference did not converge by {steps} steps at T={T} (diff {diff:.2e})")
        prev = cur


def _require(ok: bool, message: str, known: bool = False) -> None:
    if not ok:
        raise CheckFailed(message, known)


def _top_key(keys, probs) -> str:
    return keys[int(np.argmax(probs))]  # argmax takes the lowest index among ties, like the report


def _check_top(op, keys, reported_top: str, probs, reference) -> None:
    _require(reported_top == _top_key(keys, probs), f"top outcome {reported_top!r} is not the most probable key")
    solutions = nearest(op.table.labels, op.target)
    if float(np.sum(reference[solutions])) >= SUCCESS:
        want = {keys[i] for i in solutions}
        _require(reported_top in want, f"top outcome {reported_top!r}, nearest match is {sorted(want)}")


def check_search(op, out: Path) -> list[Path]:
    report = json.loads(out.read_text(encoding="utf-8"))
    probs = np.asarray(report["probabilities"], dtype=float)
    Hi, hp = instance(op.table.labels, op.target)
    _require(probs.shape == hp.shape, f"{probs.size} probabilities for {hp.size} rows")
    if op.method == "continuous":
        reference, _ = converged_probabilities(Hi, hp, op.T)
        tol = CONTINUOUS_TOL
    else:
        reference = step_probabilities(Hi, hp, op.T, op.S, op.method)
        tol = PROB_TOL
    err = float(np.max(np.abs(probs - reference)))
    rk4 = op.method == "continuous" and err < RK4_DEFECT
    _require(err <= tol, f"{op.method} probabilities off the reference by {err:.3e}", rk4)
    _check_top(op, op.table.keys, report["top_outcome"]["key"], probs, reference)
    return [out]


def _eigvalsh_at(Hi: np.ndarray, hp: np.ndarray, s: float) -> np.ndarray:
    return np.linalg.eigvalsh((1 - s) * Hi + s * np.diag(hp))


def check_spectrum(op, out: Path) -> list[Path]:
    gap_path = out.with_suffix(".gap.json")
    gap = json.loads(gap_path.read_text(encoding="utf-8"))
    Hi, hp = instance(op.table.labels, op.target)
    s_min = float(gap["s_at_min"])
    levels = _eigvalsh_at(Hi, hp, s_min)
    err = abs(levels[1] - levels[0] - gap["min_gap"])
    _require(err <= GAP_TOL, f"min_gap off eigvalsh at s={s_min} by {err:.3e}")
    degeneracy = len(nearest(op.table.labels, op.target))
    _require(gap["ground_degeneracy_at_end"] == degeneracy, f"end degeneracy {gap['ground_degeneracy_at_end']}, expected {degeneracy}")

    lines = out.read_text(encoding="utf-8").splitlines()
    _require(lines[0] == "s," + ",".join(f"E{k}" for k in range(hp.size)), "bad trace header")
    trace = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    _require(trace.shape == (op.grid, hp.size + 1), f"trace shape {trace.shape}")
    gaps = trace[:, 2] - trace[:, 1]
    i = int(np.argmin(gaps))
    _require(trace[i, 0] == s_min and gaps[i] == gap["min_gap"], "gap report is not the trace minimum")
    for row in (0, i, op.grid - 1):
        err = float(np.max(np.abs(trace[row, 1:] - _eigvalsh_at(Hi, hp, trace[row, 0]))))
        _require(err <= GAP_TOL, f"trace row s={trace[row, 0]} off eigvalsh by {err:.3e}")
    return [out, gap_path]


def check_audit(op, out: Path) -> list[Path]:
    report = json.loads(out.read_text(encoding="utf-8"))
    Hi, hp = instance(op.table.labels, op.target)
    exact = list(step_unitaries(Hi, hp, op.T, op.S, "discrete"))
    split = list(step_unitaries(Hi, hp, op.T, op.S, "trotter"))
    per_step = np.array([fidelity(U, V) for U, V in zip(exact, split)])
    reported = np.asarray(report["per_step_fidelity"], dtype=float)
    _require(reported.shape == per_step.shape, f"{reported.size} per-step fidelities for {op.S + 1} steps")
    err = float(np.max(np.abs(reported - per_step)))
    _require(err <= FIDELITY_TOL, f"per-step fidelity off by {err:.3e}")
    overall = fidelity(reduce(lambda a, b: b @ a, exact), reduce(lambda a, b: b @ a, split))
    err = abs(report["overall_fidelity"] - overall)
    _require(err <= FIDELITY_TOL, f"overall fidelity off by {err:.3e}")
    _require(report["per_step_pass"] == bool(np.all(reported >= 0.996)), "per_step_pass disagrees with the fidelities")
    _require(report["overall_pass"] == (abs(report["overall_fidelity"] - 0.991) <= 0.005), "overall_pass disagrees")
    return [out]


def check_nmr(op, out: Path) -> list[Path]:
    verify_path = out.with_suffix(".verify.json")
    verify = json.loads(verify_path.read_text(encoding="utf-8"))
    _require(verify["all_within_1e-6"] is True, "a compiled step is not within 1e-6 of its split step")
    steps = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    _require([s["step"] for s in steps] == list(range(op.S + 1)), "pulse program does not list steps 0..S")
    Hi, hp = instance(op.table.labels, op.target)
    reference = step_probabilities(Hi, hp, op.T, op.S, "trotter")
    probs = np.asarray(verify["final_probabilities"], dtype=float)
    err = float(np.max(np.abs(probs - reference)))
    _require(err <= PROB_TOL, f"pulse-program probabilities off the split product by {err:.3e}")
    _check_top(op, op.table.keys, verify["top_outcome"]["key"], probs, reference)
    return [out, verify_path]


def sweep_instance(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The documented instance rule: values a seeded permutation of 1..N, target 1."""
    values = np.random.default_rng(seed).permutation(np.arange(1, 2**n + 1)).astype(float)
    return transverse_field(n), (values - 1.0) ** 2


def check_sweep(op, out: Path) -> list[Path]:
    lines = out.read_text(encoding="utf-8").splitlines()
    _require(lines[0] == "n,N,min_gap,T_to_success" and len(lines) == 2, "sweep table is not one row")
    n, N, min_gap, T_star = (float(x) for x in lines[1].split(","))
    _require((n, N) == (op.n, 2**op.n), f"row is for n={n}, N={N}")
    Hi, hp = sweep_instance(op.n, op.seed)
    gaps = [np.diff(_eigvalsh_at(Hi, hp, s)[:2])[0] for s in np.linspace(0.0, 1.0, op.grid)]
    err = abs(min(gaps) - min_gap)
    _require(err <= GAP_TOL, f"min_gap off eigvalsh by {err:.3e}")
    probs, diff = converged_probabilities(Hi, hp, T_star)
    p = float(probs[int(np.argmin(hp))])
    shortfall = SUCCESS - (p + diff)
    _require(shortfall <= 0, f"T_to_success={T_star} reaches p={p:.6f} < {SUCCESS} under the reference", shortfall < RK4_DEFECT)
    return [out]


CHECKERS = {
    "search": check_search,
    "example": check_search,
    "spectrum": check_spectrum,
    "audit": check_audit,
    "nmr": check_nmr,
    "sweep": check_sweep,
    "reject": lambda op, out: [],
}

SUFFIX = {"search": ".json", "example": ".json", "spectrum": ".csv", "audit": ".json", "nmr": ".jsonl", "sweep": ".csv", "reject": ".json"}


def check(op, out: Path) -> list[Path]:
    """Check one operation's output files; returns them, for the byte-identity comparison."""
    try:
        return CHECKERS[op.kind](op, out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        raise CheckFailed(f"unreadable output: {type(exc).__name__}: {exc}") from None
