"""Eigenvalue analysis of the interpolating Hamiltonian.

Level traces across the interpolation, minimum-gap reports, and
gap-vs-size scaling sweeps over seeded permutation databases.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigvalsh
from numpy.typing import ArrayLike

from .errors import InputError, SweepTimeout
from .evolve import MAX_STEPS, TRACE_POINTS, _check_step_phase, _passage, _solves
from .operators import DEGENERACY_TOL, SearchHamiltonian

DEFAULT_GRID_POINTS = 1001
# A sweep instance succeeds once the population of its solution set reaches this value.
SUCCESS_THRESHOLD = 0.9
# A node solve costs O(N^3), so no probe pass may cost more N^3-weighted
# solves than a MAX_STEPS pass at N = CEILING_DIM (n = 5, gap-sweep's default
# --n-max): the step ceiling falls eightfold per qubit past n = 5.
CEILING_DIM = 32
# A probe's decision p >= SUCCESS_THRESHOLD is settled once p lies farther from
# the threshold than twice the larger of its last two pass-to-pass changes, or
# once its last change is at most DECISION_TOL. One change alone is not enough:
# the first passes of a long T are short of the asymptotic regime, and there a
# change can understate the error eightfold.
DECISION_TOL = 1e-7


def _check_probe_pass(H: SearchHamiltonian, M: int) -> None:
    """Refuse a probe pass of M steps past MAX_STEPS * min(1, (CEILING_DIM / N)^3): 1,638,400
    up to n = 5, then 204,800, 25,600, 3,200, 400 and 50 at n = 6..10."""
    ceiling = int(MAX_STEPS * min(1.0, (CEILING_DIM / H.dim) ** 3))
    if M > ceiling:
        raise SweepTimeout(f"probe pass of M={M} steps exceeds the n={H.n_qubits} step ceiling {ceiling}")


def _check_grid(grid_points: int) -> None:
    """Refuse a level trace of fewer than 2 grid points."""
    if grid_points < 2:
        raise InputError(f"need at least 2 grid points, got {grid_points}")


@dataclass(frozen=True)
class SpectrumTrace:
    """Sorted eigenvalues of H(s) on a strictly increasing s grid."""

    s_grid: np.ndarray
    levels: np.ndarray


@dataclass(frozen=True)
class GapReport:
    """Minimum first gap over the sweep and the s where it lies."""

    min_gap: float
    s_at_min: float


@dataclass(frozen=True)
class SweepRow:
    """One scaling-sweep record: instance size, min gap, time to 0.9 success."""

    n: int
    N: int
    min_gap: float
    T_to_success: float


def trace_spectrum(H: SearchHamiltonian, grid_points: int = DEFAULT_GRID_POINTS) -> SpectrumTrace:
    """Eigenvalues of H(s) = (1-s) g sum_k X_k + s diag(d) on a uniform s grid.

    The rows come from ``evolve._solves``: batched eigvalsh, with the bits
    of one call per grid point, in blocks long enough to release the GIL,
    solved ahead of the rows filled.
    """
    _check_grid(grid_points)
    s_grid = np.linspace(0.0, 1.0, grid_points)
    levels = np.empty((grid_points, H.dim))
    for w, row in zip(_solves(H, s_grid, eigvalsh), levels):
        row[:] = w
    return SpectrumTrace(s_grid=s_grid, levels=levels)


def min_gap(trace: SpectrumTrace) -> GapReport:
    """Minimum E_1 - E_0 over the grid and its s.

    An interior gap below DEGENERACY_TOL signals a level crossing: a
    warning line naming its s goes to stderr, and the report is still
    returned. H(1)'s ground level is the instance's ``solutions``.
    """
    gaps = trace.levels[:, 1] - trace.levels[:, 0]
    idx = int(np.argmin(gaps))
    interior = gaps[1:-1]
    if interior.size and np.min(interior) < DEGENERACY_TOL:
        where = 1 + int(np.argmin(interior))
        print(f"warning: ground level degenerate at interior s={trace.s_grid[where]:.6g}", file=sys.stderr)
    return GapReport(min_gap=float(gaps[idx]), s_at_min=float(trace.s_grid[idx]))


def default_permutation_instance(n: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Seeded instance rule: values are a random permutation of 1..N, target 1."""
    values = rng.permutation(np.arange(1, 2**n + 1)).astype(float)
    return values, 1.0


class _Probe:
    """Columns of total times T, run by batched CF4 passes at
    M = TRACE_POINTS - 1 steps and doubling (see ``_probe_pass``).

    A column leaves the passes once its decision p >= SUCCESS_THRESHOLD is
    settled (see DECISION_TOL), keeping the p of that pass in ``p``. Only
    the smallest reaching T counts, so every column above a settled
    reaching one leaves too, its p left NaN. ``latest`` holds each column's
    latest p and M the step count of the next pass.
    """

    def __init__(self, Ts: ArrayLike):
        self.T = np.asarray(Ts, dtype=float).ravel()
        self.p = np.full(self.T.size, np.nan)
        self.latest = np.full(self.T.size, np.nan)
        self.open = np.ones(self.T.size, dtype=bool)
        self.M, self._diff = TRACE_POINTS - 1, np.full(self.T.size, np.inf)

    def settle(self, current: np.ndarray) -> None:
        """Take the p of the pass at M for the open columns, and settle what it settles."""
        index = np.flatnonzero(self.open)
        if self.M > TRACE_POINTS - 1:
            diff = np.abs(current - self.latest[index])
            margin = np.abs(current - SUCCESS_THRESHOLD)
            settled = (margin > 2 * np.maximum(diff, self._diff[index])) | (diff <= DECISION_TOL)
            self.p[index[settled]] = current[settled]
            self.open[index[settled]] = False
            self._diff[index] = diff
        self.latest[index] = current
        self.M *= 2
        reached = np.flatnonzero(self.p >= SUCCESS_THRESHOLD)
        if reached.size:
            self.open[reached[0] + 1 :] = False


def _probe_pass(H: SearchHamiltonian, probes: list[_Probe]) -> None:
    """One CF4 pass over the open columns of probes that all stand at one M,
    batched in the order of probes. The final population of H.solutions, the
    set of H(1)'s ground level, settles each probe's columns. Before its
    first solve, the pass is vetted against _check_probe_pass's ceiling,
    which is never above MAX_STEPS, and its largest T's half-steps against
    _check_step_phase.
    """
    M = probes[0].M
    Ts = [probe.T[probe.open] for probe in probes]
    columns = np.concatenate(Ts)
    _check_probe_pass(H, M)
    _check_step_phase(H, float(columns.max()) / (2 * M), f" at M={M} steps")
    for psi in _passage(H, columns, M):
        pass  # only the final block counts; keeping the others costs memory
    current = (np.abs(psi[H.solutions]) ** 2).sum(0)
    for probe, part in zip(probes, np.split(current, np.cumsum([T.size for T in Ts]))):
        probe.settle(part)


def _two_figure_grid(lo: float, hi: float) -> list[float]:
    """Every 2-significant-figure T above lo, ascending, through the first >= hi.

    Each value m * 10^e (m = 10..99) is the double nearest its decimal.
    """
    grid: list[float] = []
    e = int(np.floor(np.log10(lo))) - 1
    while True:
        for m in range(10, 100):
            T = m * 10.0**e if e >= 0 else m / 10.0**-e
            if T > lo:
                grid.append(T)
            if T >= hi:
                return grid
        e += 1


def time_to_success(H: SearchHamiltonian) -> float:
    """Smallest T at which the population of H.solutions reaches
    SUCCESS_THRESHOLD, to 2 significant figures.

    The doubling ladder T = 2^0..2^11 brackets the answer in (2^(k-1), 2^k]
    at its first reaching rung 2^k; every 2-significant-figure T in that
    bracket, through the first one >= 2^k (at most 50 columns), is probed,
    and the smallest that reaches is returned; 2^k when none does. When
    rung T = 1 reaches, 1.0 is returned with no grid. Success is not
    assumed monotone in T: where p(T) oscillates around the threshold, the
    answer is its first crossing on the grid.

    One probe runs the rungs and, in the same passes, the grid of the likely
    bracket, so each pass solves its nodes once. That grid joins at the
    start of a pass once every rung below 2^k has settled below the
    threshold and rung 2^k has read p >= SUCCESS_THRESHOLD, after replaying
    the earlier passes on its own; it leaves if rung 2^k settles below. A
    rung or grid value leaves once a smaller one of its kind has settled
    reaching. Every column settles at the pass where a separate probe of its
    kind would, with the same p. SweepTimeout when no rung reaches, or when
    a pass exceeds _check_probe_pass's ceiling.
    """
    rungs, grid, bracket = _Probe(2.0 ** np.arange(12)), None, None
    while True:
        below = rungs.p < SUCCESS_THRESHOLD
        if below.all():
            raise SweepTimeout(f"no success by T={float(rungs.T[-1])}; instance looks stuck")
        k = int(np.argmin(below))  # the lowest rung not settled below
        hi, reached = float(rungs.T[k]), bool(rungs.p[k] >= SUCCESS_THRESHOLD)
        if reached and k == 0:
            return 1.0
        if grid is not None and bracket != hi:
            grid = None  # its rung settled below
        if grid is None and k and rungs.latest[k] >= SUCCESS_THRESHOLD:
            grid, bracket = _Probe(_two_figure_grid(hi / 2, hi)), hi
            while grid.M < rungs.M and grid.open.any():
                _probe_pass(H, [grid])
            grid.M = rungs.M
        if reached and not grid.open.any():
            hit = grid.p >= SUCCESS_THRESHOLD
            return float(grid.T[int(np.argmax(hit))]) if hit.any() else hi
        _probe_pass(H, [rungs] if grid is None else [rungs, grid])


def gap_scaling_sweep(
    n_range: list[int],
    seed: int = 0,
    g: float = 1.0,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> list[SweepRow]:
    """Minimum gap and time-to-success across database sizes.

    One seeded default_permutation_instance per n, all from one generator,
    so the instance of n depends on the n before it. The rows depend on the
    arguments alone: _check_probe_pass bounds every probe pass, and refuses
    an instance whose first pass exceeds it (n = 10) before its level trace.
    The n range, the grid and the seed are checked before any instance.
    """
    if not n_range or any(n < 2 or n > 10 for n in n_range):
        raise InputError(f"n range must be nonempty and lie within [2, 10], got {n_range}")
    _check_grid(grid_points)
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    rows: list[SweepRow] = []
    for n in n_range:
        values, target = default_permutation_instance(n, rng)
        H = SearchHamiltonian(n, g, (values - target) ** 2)
        _check_probe_pass(H, TRACE_POINTS - 1)
        report = min_gap(trace_spectrum(H, grid_points))
        rows.append(SweepRow(n=n, N=2**n, min_gap=report.min_gap, T_to_success=time_to_success(H)))
    return rows
