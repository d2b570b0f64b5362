"""State evolution under the interpolating Hamiltonian.

Three routes to the final state: error-controlled integration of the
Schrodinger equation (hbar = 1) by the commutator-free fourth-order
exponential CF4, exact steps exp(-i H(s/S) tau), and the symmetric
second-order split of each step. The one CF4 passage also serves the
time-to-success probes in ``spectrum``.
Exact steps act on the state in the eigenbasis of the real symmetric H(s),
so no step unitary is formed; only the fidelity audit forms one, in place,
from the same eigenbasis. A split step needs no eigenbasis: each factor has
a closed form, the tensor product of one single-qubit x rotation for the
transverse field and a phase vector for the diagonal, so the splitting
error is measurable in isolation. No evolution renormalizes its state:
QuantumState refuses a final norm off by more than NORM_TOL.

``_walk`` steps the CF4 passage and the exact steps, psi <- V e^{w z} V^T psi
at each eigenbasis node. Each evolution's ground-population trace comes from
the rotations V^T psi of its states into the eigenbases of H at the trace
points: each exact step's own, Q^T psi after each split step, V_k^T psi_k at
the continuous trace points. ``_ground_share`` sums the ground level's part.

H(s) does not depend on the state, so every path that solves H(s) on an s
list known in advance (the CF4 nodes, the continuous trace points, the exact
steps, the fidelity audit's steps and ``spectrum``'s level traces) takes its
solves from ``_solves``: the eigvalsh levels w of each H(s), or what
``_eigensystem`` makes of its eigh: the eigenvectors V, the size of the
ground level and, for a step loop, the step phases e^{w z}. The solves run
on blocks of H(s) built on the calling thread and solved ahead of the
state, on one worker thread per CPU. Only numpy runs on a pool worker: every
public function of the package stays on the calling thread, where a caller
may wrap or trace it. Every block is the shortest for which numpy's solver
loop releases the GIL (see GIL_LOOP), so the workers run in parallel; shorter
eigvalsh blocks ran slower than one thread. The state is still stepped node
by node in order, so the calling thread makes only the two products with V
of each node, and a batched eigh or eigvalsh gives the bits of one call per
matrix, so every result is bit-identical to solving each node where it is
used. Each solve should run on one BLAS thread; the CLI sets that default
before numpy loads.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import closing
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Iterator

import numpy as np
from numpy.linalg import eigh
from numpy.typing import ArrayLike

from .errors import InputError, NumericError, tolerance_text
from .operators import DEGENERACY_TOL, SearchHamiltonian, _x_rotation, interpolate

NORM_TOL = 1e-9
# CF4 passes take M = (TRACE_POINTS - 1) * 2^j steps, so the ground-population
# trace points k / (TRACE_POINTS - 1) fall on step boundaries.
TRACE_POINTS = 101
# Step ceiling of the doubling passes.
MAX_STEPS = (TRACE_POINTS - 1) * 2**14
# A continuous search is converged once no population moves by more than
# this from the pass at half the steps.
POPULATION_TOL = 1e-5
# Largest step phase tau * max(n*g, max|d|) a step may carry: from 2^52 rad
# on, one float64 spacing is at least 1 rad, so the phase is rounding noise.
MAX_STEP_PHASE = 2.0**52
# Every block of node solves, eigh or eigvalsh, holds max(1, GIL_LOOP // N)
# matrices, 256 at n = 1 down to 1 from n = 9: numpy's linalg loop releases
# the GIL only past 500 entries, and eigvalsh of b N x N matrices loops over
# b * N. A CF4 block's phases so hold at most max(GIL_LOOP, N) * B complex
# values for B columns.
GIL_LOOP = 512


@dataclass(frozen=True)
class QuantumState:
    """Normalized pure state of a register: its amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if not np.all(np.isfinite(amps)):
            raise NumericError("state has non-finite amplitudes")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise NumericError(f"state norm {norm!r} deviates from 1 beyond {tolerance_text(NORM_TOL)}")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class EvolutionPlan:
    """Evolution parameters: total time T and step count S.

    The step length is tau = T / (S + 1): S + 1 unitaries cover the passage,
    at most MAX_STEPS of them. The interpolation is linear: step s sits at
    s/S, time t at t/T.
    """

    T: float
    S: int

    def __post_init__(self):
        if not self.T > 0:
            raise InputError(f"total time must be positive, got {self.T}")
        if not np.isfinite(self.T):
            raise InputError(f"total time must be finite, got {self.T}")
        if self.S < 1:
            raise InputError(f"step count must be at least 1, got {self.S}")
        if self.S + 1 > MAX_STEPS:
            raise InputError(f"step count must be below the step ceiling {MAX_STEPS}, got {self.S}")

    @property
    def tau(self) -> float:
        return self.T / (self.S + 1)


@dataclass(frozen=True)
class EvolutionReport:
    """Outcome of one evolution: final state, populations, ground-level trace.

    A continuous evolution also records the step count of its reported
    pass and that pass's largest population change from the one before.
    """

    final_state: QuantumState
    probabilities: np.ndarray
    ground_population_trace: tuple[tuple[float, float], ...]
    method: str
    fidelity_audit: dict | None = None
    steps: int | None = None
    error_estimate: float | None = None


@cache
def initial_ground_state(n: int) -> np.ndarray:
    """Amplitudes of the ground state of the transverse-field Hamiltonian.

    Amplitude (-1)^popcount(j) / sqrt(2^n) at basis index j: the tensor
    product of (|0> - |1>)/sqrt(2) on every qubit, eigenstate of the
    transverse field g * sum_k X_k = H(0) with eigenvalue -n*g. Made once
    per n, read-only.
    """
    signs = np.ones(1)
    for _ in range(n):  # indices with bit k set have one set bit more than those without
        signs = np.concatenate([signs, -signs])
    psi = (signs / np.sqrt(2**n)).astype(complex)
    psi.flags.writeable = False
    return psi


def measure_probabilities(psi: QuantumState) -> np.ndarray:
    """Born-rule populations |a_j|^2 over the computational basis."""
    return np.abs(psi.amplitudes) ** 2


def operator_fidelity(U: np.ndarray, V: np.ndarray) -> float:
    """Global-phase-invariant unitary similarity |Tr(U^dag V)| / d.

    Tr(U^dag V) is the sum of conj(U) * V over every entry, np.vdot(U, V),
    for the square d x d arrays U and V.
    """
    return float(abs(np.vdot(U, V)) / len(U))


def _ground_share(count: int, rotated: np.ndarray) -> float:
    """Population of psi in the ground level of H, summed over degenerate
    states, given V^T psi for eigh(H) = (w, V) and the size ``count`` of
    the ground level that ``_eigensystem`` gives."""
    ground = rotated[:count]
    return float(np.vdot(ground, ground).real)


def _eigensystem(A: np.ndarray, z: complex | np.ndarray | None = None) -> tuple:
    """eigh(A) = (w, V) of one real symmetric matrix A, or of each matrix of
    a stack A, as (V, count) or, given a step loop's exponent factor z, as
    (V, count, e^{w z}) over the outer product of w and z: z = -i tau gives
    one phase per level, a vector of B factors one per level and column.

    count is the size of the ground level, the number of levels within
    DEGENERACY_TOL of the lowest, which ``_ground_share`` takes. Only numpy
    may run here: ``_solves`` runs this on its pool's workers.
    """
    w, V = eigh(A)
    count = (w <= w[..., :1] + DEGENERACY_TOL).sum(-1)
    if z is None:
        return V, count
    # Exponentiated in place: a CF4 block's phases are its largest array.
    phases = np.multiply.outer(w, z)
    return V, count, np.exp(phases, out=phases)


def _check_step_phase(H: SearchHamiltonian, tau: float, at: str = "", last: str = "") -> None:
    """Refuse steps of length tau whose largest phase tau * max(n*g, max|d|)
    lies past MAX_STEP_PHASE. ``at`` and ``last`` extend the message."""
    phase = tau * max(H.n_qubits * H.g, float(np.max(np.abs(H.d))))
    if not phase <= MAX_STEP_PHASE:
        raise NumericError(
            f"step phase {phase:.3g} rad{at} exceeds 2^52 rad, past float64 resolution{last}"
        )


def _check_pass(H: SearchHamiltonian, T: float, M: int, change: float | None) -> None:
    """Refuse a pass of M steps past MAX_STEPS, or whose half-steps T / 2M
    fail _check_step_phase. ``change`` is the last pass-to-pass change,
    quoted in the message."""
    last = "none yet" if change is None else f"{change:.3g}"
    if M > MAX_STEPS:
        raise NumericError(f"no convergence by M={M // 2} steps; last change {last}")
    _check_step_phase(H, T / (2 * M), f" at M={M} steps", f"; last change {last}")


def _workers() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache
def _solver_pool():
    """The ThreadPoolExecutor of node solves, one worker per CPU, made on first use."""
    # Imported here: a job of one block, like the worked example, never
    # needs it, and the import costs a fresh process about 4 ms.
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_workers(), thread_name_prefix="adiasearch-eigh")


# A forked child has none of its parent's threads, so it makes its own pool.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_solver_pool.cache_clear)


def _each(solved) -> Iterator:
    """The per-matrix results of one batched solve: the tuples of a solver
    that returns a tuple of stacks, like eigh or ``_eigensystem``, or eigvalsh's rows w."""
    return zip(*solved) if isinstance(solved, tuple) else iter(solved)


def _solves(H: SearchHamiltonian, s: ArrayLike, solver: Callable) -> Iterator:
    """solver(H(s_k)) for each s_k of the 1-D s, in order, for a solver that
    takes one matrix or a stack: eigvalsh, which gives w, or eigh or
    ``_eigensystem``, which give a tuple.

    Each block of max(1, GIL_LOOP // N) matrices, the fewest for which
    eigvalsh releases the GIL, is built here, by one interpolate call, and
    solved by one batched solver call, which gives the bits of one call per
    matrix. A job of one block is solved on the calling thread. Otherwise
    the pool's workers solve up to 2 blocks per worker ahead of the
    consumer; they run the solver alone, on arrays built here, so no
    public package function leaves the calling thread. Closing the generator
    cancels the blocks not yet started and waits for the running ones.
    """
    s = np.asarray(s, dtype=float)
    size = max(1, GIL_LOOP // H.dim)
    if s.size <= size:
        yield from _each(solver(interpolate(H, s)))
        return
    pool, ahead = _solver_pool(), 2 * _workers()
    pending = deque()
    try:
        for start in range(0, s.size, size):
            if len(pending) == ahead:
                yield from _each(pending.popleft().result())
            pending.append(pool.submit(solver, interpolate(H, s[start : start + size])))
        while pending:
            yield from _each(pending.popleft().result())
    finally:
        for running in [future for future in pending if not future.cancel()]:
            running.exception()  # waits; a closed job leaves no block behind


def _walk(H: SearchHamiltonian, nodes: ArrayLike, z: complex | np.ndarray, every: int) -> Iterator[tuple]:
    """Step the transverse-field ground state through the nodes, psi <-
    V e^{w z} V^T psi for eigh(H(s)) = (w, V): a vector by complex products
    for a scalar z, or an N x B block, one column per z_b of a vector z.
    Yields the node's ground-level count, V^T psi and the stepped psi after
    every ``every``-th node; closing the walk cancels the unstarted solves."""
    psi = initial_ground_state(H.n_qubits)
    if np.ndim(z):
        psi = np.repeat(psi[:, None], len(z), axis=1)
    with closing(_solves(H, nodes, partial(_eigensystem, z=z))) as solves:
        for k, (V, count, phases) in enumerate(solves, 1):
            if psi.ndim == 1:  # complex products: an N x 1 real view rounds otherwise
                rotated = V.T @ psi
                psi = V @ (phases * rotated)
            else:
                # V is real: both products run on the real view of the block.
                rotated = (V.T @ psi.view(float)).view(complex)
                psi = (V @ (phases * rotated).view(float)).view(complex)
            if k % every == 0:
                yield count, rotated, psi


def _passage(H: SearchHamiltonian, Ts: ArrayLike, M: int) -> Iterator[np.ndarray]:
    """CF4 passage of M steps from the transverse-field ground state.

    Step m applies exp(-i (T/2M) H(s)) at s = (m + 1/6)/M, then at
    s = (m + 5/6)/M. H is affine in s, so this is the commutator-free
    fourth-order exponential of Blanes & Moan. ``_walk`` steps an N x B
    block, one column per total time T of Ts: the columns differ only in
    their phases e^{-i w T/2M}. M is a multiple of TRACE_POINTS - 1; the
    block is yielded at each trace point s = k / (TRACE_POINTS - 1),
    k = 1.. Closing the passage cancels the solves not yet started.
    """
    # Formed as -0.5j * T / M: -1j * (T / (2 * M)) rounds differently and
    # moves the last bit of some phases.
    half = -0.5j * np.asarray(Ts, dtype=float).ravel() / M
    nodes = ((np.arange(M)[:, None] + [1 / 6, 5 / 6]) / M).ravel()
    with closing(_walk(H, nodes, half, 2 * M // (TRACE_POINTS - 1))) as walk:
        yield from (psi for _, _, psi in walk)


def evolve_continuous(H: SearchHamiltonian, plan: EvolutionPlan) -> EvolutionReport:
    """Integrate the Schrodinger equation from t=0 to T by error-controlled CF4.

    Runs passes at M = TRACE_POINTS - 1 steps and doubles M until no
    population changes by more than POPULATION_TOL from the previous pass.
    Reports the finer pass, its step count and that last change, with the
    instantaneous-ground-level population at each trace point k / 100.
    """
    M, change, previous = TRACE_POINTS - 1, None, None
    while True:
        _check_pass(H, plan.T, M, change)
        states = [psi[:, 0] for psi in _passage(H, [plan.T], M)]
        populations = np.abs(states[-1]) ** 2
        if previous is not None:
            change = float(np.max(np.abs(populations - previous)))
            if change <= POPULATION_TOL:
                break
        M, previous = 2 * M, populations

    points = [k / (TRACE_POINTS - 1) for k in range(TRACE_POINTS)]
    trace = [
        (s, _ground_share(count, V.T @ psi))
        for (V, count), s, psi in zip(
            _solves(H, points, _eigensystem), points, [initial_ground_state(H.n_qubits), *states]
        )
    ]
    return _report(H, states[-1], trace, "continuous", steps=M, error_estimate=change)


def trotter_step(H: SearchHamiltonian, plan: EvolutionPlan, s: int) -> np.ndarray:
    """Symmetric second-order split of the step unitary.

    exp(-i (1-x) Hx tau/2) exp(-i x diag(d) tau) exp(-i (1-x) Hx tau/2), Hx = g sum_k X_k,
    x = s/S; exact at both endpoints where one factor vanishes. Each outer
    factor is the tensor product of one single-qubit x rotation by
    (1-x) tau g / 2, built by ``_x_rotation``, and the middle one is the
    phase exp(-i x tau d), so the step is one matrix product.
    """
    _check_step_phase(H, plan.tau)
    x = s / plan.S
    half = _x_rotation(H.n_qubits, (1.0 - x) * plan.tau * H.g / 2.0)
    phase = np.exp(-1j * x * plan.tau * H.d)
    return (half * phase) @ half


def _report(
    H: SearchHamiltonian, psi: np.ndarray, trace: list, method: str, **fields
) -> EvolutionReport:
    """The EvolutionReport of a final state psi, taken as is, and its trace."""
    final = QuantumState(psi)
    return EvolutionReport(
        final_state=final,
        probabilities=measure_probabilities(final),
        ground_population_trace=tuple(trace),
        method=method,
        **fields,
    )


def evolve_discrete_exact(H: SearchHamiltonian, plan: EvolutionPlan) -> EvolutionReport:
    """Apply the exact steps for s = 0..S, ascending: ``_walk`` steps the
    state vector by psi <- V e^{-i w tau} V^T psi in the eigenbasis (w, V) of
    H(s/S), forming no step unitary. A step leaves the populations of
    H(s/S)'s levels unchanged, so its rotation V^T psi gives the ground share
    before it, the trace point after it; step 0's also starts the trace."""
    _check_step_phase(H, plan.tau)
    steps = [s / plan.S for s in range(plan.S + 1)]
    trace = []
    for (count, rotated, psi), x in zip(_walk(H, steps, -1j * plan.tau, 1), steps):
        trace.append((x, _ground_share(count, rotated)))
    return _report(H, psi, [(0.0, trace[0][1]), *trace], "discrete-exact")


def evolve_trotter(H: SearchHamiltonian, plan: EvolutionPlan) -> EvolutionReport:
    """Apply the second-order split unitaries for s = 0..S, ascending.

    The evolution rides on the fidelity audit, which makes each split
    unitary and eigendecomposes each H(x) once for both.
    """
    psi = initial_ground_state(H.n_qubits)
    trace = []

    def step(x: float, V: np.ndarray, Q: np.ndarray, count: int) -> None:
        # H(0)'s levels also give the trace's starting point.
        nonlocal psi
        if not trace:
            trace.append((0.0, _ground_share(count, Q.T @ psi)))
        psi = V @ psi
        trace.append((x, _ground_share(count, Q.T @ psi)))

    audit = trotter_fidelity_audit(H, plan, on_step=step)
    return _report(H, psi, trace, "trotter2", fidelity_audit=audit)


def trotter_fidelity_audit(
    H: SearchHamiltonian,
    plan: EvolutionPlan,
    on_step: Callable[[float, np.ndarray, np.ndarray, int], None] | None = None,
) -> dict:
    """Per-step and whole-product fidelities of the split against exact steps.

    Returns {"per_step": [F_0..F_S], "overall": F(prod U_s, prod U'_s)}.
    ``on_step(x, V, Q, count)``, when given, is called after each step with
    its split unitary V, the eigenvectors Q of H(x) and the size of its
    ground level.
    """
    exact_prod = np.eye(H.dim, dtype=complex)
    split_prod = np.eye(H.dim, dtype=complex)
    per_step = []
    steps = [s / plan.S for s in range(plan.S + 1)]
    solve = partial(_eigensystem, z=-1j * plan.tau)
    with closing(_solves(H, steps, solve)) as solves:
        for s, x in enumerate(steps):
            V = trotter_step(H, plan, s)  # checks the step phase for both unitaries
            Q, count, phases = next(solves)
            U = (Q * phases) @ Q.T  # the exact step; Q is real
            per_step.append(operator_fidelity(U, V))
            exact_prod = U @ exact_prod
            split_prod = V @ split_prod
            if on_step is not None:
                on_step(x, V, Q, count)
    return {
        "per_step": per_step,
        "overall": operator_fidelity(exact_prod, split_prod),
    }
