"""State evolution under the interpolating Hamiltonian.

Three routes to the final state: fixed-step RK4 integration of the
Schrodinger equation (hbar = 1), a product of exact step unitaries
exp(-i H(s/S) tau), and the symmetric second-order split of each step.
The one RK4 propagator also serves the time-to-success probes in
``spectrum``.
Exact steps go through Hermitian eigendecomposition. A split step needs
none: each factor has a closed form, single-qubit x rotations for the
transverse field and a phase vector for the diagonal, so the splitting
error is measurable in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from numpy.typing import ArrayLike
from scipy.linalg import eigh

from .errors import (
    DimensionMismatch,
    InputError,
    NonFiniteResult,
    NotNormalized,
    SOutOfRange,
    StepTooLarge,
    tolerance_text,
)
from .operators import SearchHamiltonian, _x_rotation, interpolate

NORM_TOL = 1e-9
NORM_DRIFT_TOL = 1e-6
DEGENERACY_TOL = 1e-9
# How far a schedule may miss s(0) = 0, s(1) = 1 and monotonicity.
SCHEDULE_TOL = 1e-12
TRACE_POINTS = 101
# Fixed RK4 step count over [0, T]; a multiple of TRACE_POINTS - 1 so the
# ground-population trace grid falls on step boundaries.
RK4_STEPS = 10000


@dataclass(frozen=True)
class QuantumState:
    """Normalized pure state of an n-qubit register."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n_qubits,):
            raise DimensionMismatch(
                f"amplitude vector shape {amps.shape} does not match {self.n_qubits} qubits"
            )
        if not np.all(np.isfinite(amps)):
            raise NonFiniteResult("state has non-finite amplitudes")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise NotNormalized(
                f"state norm {norm!r} deviates from 1 beyond {tolerance_text(NORM_TOL)}"
            )
        object.__setattr__(self, "amplitudes", amps)


def linear_schedule(x: float) -> float:
    """Default interpolation schedule s(t) = t / T."""
    return x


@dataclass(frozen=True)
class EvolutionPlan:
    """Evolution parameters: total time T, step count S, schedule.

    The step length is tau = T / (S + 1): S + 1 unitaries cover the passage.
    The schedule maps the scaled time t/T (or step fraction s/S) onto the
    interpolation parameter; it must be monotone with endpoints 0 and 1.
    """

    T: float
    S: int
    schedule: Callable[[float], float] = linear_schedule

    def __post_init__(self):
        if not self.T > 0:
            raise InputError(f"total time must be positive, got {self.T}")
        if not np.isfinite(self.T):
            raise InputError(f"total time must be finite, got {self.T}")
        if self.S < 1:
            raise InputError(f"step count must be at least 1, got {self.S}")
        grid = [self.schedule(x) for x in np.linspace(0.0, 1.0, TRACE_POINTS)]
        if abs(grid[0]) > SCHEDULE_TOL or abs(grid[-1] - 1.0) > SCHEDULE_TOL:
            raise InputError("schedule must satisfy s(0) = 0 and s(1) = 1")
        if any(b < a - SCHEDULE_TOL for a, b in zip(grid, grid[1:])):
            raise InputError("schedule must be monotone nondecreasing")

    @property
    def tau(self) -> float:
        return self.T / (self.S + 1)


@dataclass(frozen=True)
class EvolutionReport:
    """Outcome of one evolution: final state, populations, ground-level trace."""

    final_state: QuantumState
    probabilities: np.ndarray
    ground_population_trace: tuple[tuple[float, float], ...]
    method: str
    fidelity_audit: dict | None = None


def initial_ground_state(n: int) -> QuantumState:
    """Ground state of the transverse-field Hamiltonian.

    Amplitude (-1)^popcount(j) / sqrt(2^n) at basis index j: the tensor
    product of (|0> - |1>)/sqrt(2) on every qubit, eigenstate of
    initial_hamiltonian(n, g) with eigenvalue -n*g.
    """
    if n < 1:
        raise InputError(f"need at least one qubit, got {n}")
    dim = 2**n
    signs = np.array([(-1) ** int(j).bit_count() for j in range(dim)], dtype=complex)
    return QuantumState(n_qubits=n, amplitudes=signs / np.sqrt(dim))


def expm_hermitian(
    H: np.ndarray, t: float, levels: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """exp(-i H t) for Hermitian H, by eigendecomposition.

    ``levels`` is eigh(H) when the caller already has it.
    """
    w, V = eigh(H) if levels is None else levels
    return (V * np.exp(-1j * w * t)) @ V.conj().T


def measure_probabilities(psi: QuantumState) -> np.ndarray:
    """Born-rule populations |a_j|^2 over the computational basis."""
    return np.abs(psi.amplitudes) ** 2


def state_overlap(psi: QuantumState, phi: QuantumState) -> float:
    """|<psi|phi>|^2, in [0, 1]."""
    if psi.n_qubits != phi.n_qubits:
        raise DimensionMismatch(
            f"qubit counts differ: {psi.n_qubits} vs {phi.n_qubits}"
        )
    return float(abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2)


def operator_fidelity(U: np.ndarray, V: np.ndarray) -> float:
    """Global-phase-invariant unitary similarity |Tr(U^dag V)| / d."""
    U = np.asarray(U)
    V = np.asarray(V)
    if U.shape != V.shape or U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise DimensionMismatch(f"incompatible shapes {U.shape} and {V.shape}")
    return float(abs(np.trace(U.conj().T @ V)) / U.shape[0])


def ground_population(psi: np.ndarray, H: np.ndarray, tol: float = DEGENERACY_TOL) -> float:
    """Population of the ground level of H, summed over degenerate states."""
    return _ground_share(psi, eigh(H), tol)


def _ground_share(
    psi: np.ndarray, levels: tuple[np.ndarray, np.ndarray], tol: float = DEGENERACY_TOL
) -> float:
    """ground_population of psi in H, given levels = eigh(H)."""
    w, V = levels
    mask = w <= w[0] + tol
    amps = V[:, mask].conj().T @ psi
    return float(np.sum(np.abs(amps) ** 2))


def _rk4_passage(
    H: SearchHamiltonian, T: ArrayLike, schedule: Callable[[float], float] = linear_schedule
) -> Iterator[tuple[float, np.ndarray, float | np.ndarray]]:
    """Fixed-step RK4 passage from the transverse-field ground state.

    Takes RK4_STEPS steps of T / RK4_STEPS under H(schedule(t / T)). After
    each step, yields the step's end fraction, the renormalized state and
    the norm before renormalizing. H is built once per RK4 node: a step's
    end is the next step's start, and the midpoint serves both k2 and k3.

    T is one total time or a vector of B of them. Every T walks the same
    nodes m / RK4_STEPS, so a vector runs as one pass: the state is then an
    N x B block with one column per T, the step h a B-vector, and each
    column is renormalized on its own (the norm is a B-vector too).
    """
    h = np.asarray(T, dtype=float) / RK4_STEPS
    batched = h.ndim > 0
    psi = initial_ground_state(H.n_qubits).amplitudes
    if batched:
        psi = np.repeat(psi[:, None], h.size, axis=1)
    else:
        h = float(h)  # Python float arithmetic costs less per step than np.float64
    H_end = H.at(schedule(0.0))
    for m in range(RK4_STEPS):
        f1 = (m + 1) / RK4_STEPS
        H_start = H_end
        H_mid = H.at(schedule((m + 0.5) / RK4_STEPS))
        H_end = H.at(schedule(f1))
        k1 = -1j * (H_start @ psi)
        k2 = -1j * (H_mid @ (psi + (h / 2) * k1))
        k3 = -1j * (H_mid @ (psi + (h / 2) * k2))
        k4 = -1j * (H_end @ (psi + h * k3))
        psi = psi + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        norm = np.linalg.norm(psi, axis=0) if batched else float(np.linalg.norm(psi))
        psi = psi / norm
        yield f1, psi, norm


def evolve_continuous(H: SearchHamiltonian, plan: EvolutionPlan) -> EvolutionReport:
    """Integrate the Schrodinger equation from t=0 to T with fixed-step RK4.

    Runs the RK4 passage, fails at the first step whose norm drifts past
    NORM_DRIFT_TOL, and records the instantaneous-ground-level population
    on a TRACE_POINTS grid.
    """
    per_chunk = RK4_STEPS // (TRACE_POINTS - 1)
    s0 = plan.schedule(0.0)
    psi = initial_ground_state(H.n_qubits).amplitudes
    trace = [(s0, ground_population(psi, H.at(s0)))]
    for m, (f1, psi, norm) in enumerate(_rk4_passage(H, plan.T, plan.schedule), 1):
        if not abs(norm - 1.0) <= NORM_DRIFT_TOL:
            raise StepTooLarge(
                f"norm drifted to {norm} at t={f1 * plan.T:.6g}; reduce dt"
            )
        if m % per_chunk == 0:
            s_here = plan.schedule(f1)
            trace.append((s_here, ground_population(psi, H.at(s_here))))

    final = QuantumState(n_qubits=H.n_qubits, amplitudes=psi)
    return EvolutionReport(
        final_state=final,
        probabilities=measure_probabilities(final),
        ground_population_trace=tuple(trace),
        method="continuous",
    )


def _step_parameter(plan: EvolutionPlan, s: int) -> float:
    return plan.schedule(s / plan.S)


def exact_step(H: SearchHamiltonian, plan: EvolutionPlan, s: int) -> np.ndarray:
    """Step unitary exp(-i H(s/S) tau) via exact eigendecomposition."""
    if not 0 <= s <= plan.S:
        raise SOutOfRange(f"step index {s} outside 0..{plan.S}")
    return _exact_step_levels(H, plan, s)[1]


def trotter_step(H: SearchHamiltonian, plan: EvolutionPlan, s: int) -> np.ndarray:
    """Symmetric second-order split of the step unitary.

    exp(-i (1-x) Hi tau/2) exp(-i x Hp tau) exp(-i (1-x) Hi tau/2) with
    x = s/S; exact at both endpoints where one factor vanishes. The outer
    factors are x rotations by (1-x) tau g / 2 on every qubit and the middle
    one is the phase exp(-i x tau d), so the step is one matrix product.
    """
    if not 0 <= s <= plan.S:
        raise SOutOfRange(f"step index {s} outside 0..{plan.S}")
    x = _step_parameter(plan, s)
    half = _x_rotation(H.n_qubits, (1.0 - x) * plan.tau * H.g / 2.0)
    phase = np.exp(-1j * x * plan.tau * H.d)
    return (half * phase) @ half


def _exact_step_levels(H: SearchHamiltonian, plan: EvolutionPlan, s: int):
    """x, exact_step(H, plan, s) and eigh(H(x)), with one eigensolve for both."""
    x = _step_parameter(plan, s)
    Hx = interpolate(H, x)
    levels = eigh(Hx)
    return x, expm_hermitian(Hx, plan.tau, levels), levels


class _Passage:
    """A stepwise evolution from the transverse-field ground state and its
    ground-level population trace."""

    def __init__(self, H: SearchHamiltonian, plan: EvolutionPlan):
        self.n_qubits = H.n_qubits
        self.psi = initial_ground_state(H.n_qubits).amplitudes
        s0 = plan.schedule(0.0)
        self.trace = [(s0, _ground_share(self.psi, eigh(H.at(s0))))]

    def step(self, x: float, U: np.ndarray, levels: tuple[np.ndarray, np.ndarray]) -> None:
        """Apply U, then trace the ground population of H(x), given eigh(H(x))."""
        self.psi = U @ self.psi
        self.trace.append((x, _ground_share(self.psi, levels)))

    def report(self, method: str, fidelity_audit: dict | None = None) -> EvolutionReport:
        psi = self.psi / np.linalg.norm(self.psi)
        final = QuantumState(n_qubits=self.n_qubits, amplitudes=psi)
        return EvolutionReport(
            final_state=final,
            probabilities=measure_probabilities(final),
            ground_population_trace=tuple(self.trace),
            method=method,
            fidelity_audit=fidelity_audit,
        )


def evolve_discrete_exact(H: SearchHamiltonian, plan: EvolutionPlan) -> EvolutionReport:
    """Apply the exact step unitaries for s = 0..S, ascending."""
    passage = _Passage(H, plan)
    for s in range(plan.S + 1):
        passage.step(*_exact_step_levels(H, plan, s))
    return passage.report("discrete-exact")


def evolve_trotter(H: SearchHamiltonian, plan: EvolutionPlan) -> EvolutionReport:
    """Apply the second-order split unitaries for s = 0..S, ascending.

    The evolution rides on the fidelity audit, which makes each split
    unitary and eigendecomposes each H(x) once for both.
    """
    passage = _Passage(H, plan)
    audit = trotter_fidelity_audit(H, plan, on_step=passage.step)
    return passage.report("trotter2", audit)


def trotter_fidelity_audit(
    H: SearchHamiltonian,
    plan: EvolutionPlan,
    on_step: Callable[[float, np.ndarray, tuple], None] | None = None,
) -> dict:
    """Per-step and whole-product fidelities of the split against exact steps.

    Returns {"per_step": [F_0..F_S], "overall": F(prod U_s, prod U'_s)}.
    ``on_step(x, V, levels)``, when given, is called after each step with
    its split unitary V and eigh(H(x)).
    """
    exact_prod = np.eye(H.dim, dtype=complex)
    split_prod = np.eye(H.dim, dtype=complex)
    per_step = []
    for s in range(plan.S + 1):
        x, U, levels = _exact_step_levels(H, plan, s)
        V = trotter_step(H, plan, s)
        per_step.append(operator_fidelity(U, V))
        exact_prod = U @ exact_prod
        split_prod = V @ split_prod
        if on_step is not None:
            on_step(x, V, levels)
    return {
        "per_step": per_step,
        "overall": operator_fidelity(exact_prod, split_prod),
    }
