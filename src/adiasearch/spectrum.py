"""Eigenvalue analysis of the interpolating Hamiltonian.

Level traces across the schedule, minimum-gap reports with end-point
degeneracy counting, and gap-vs-size scaling sweeps over seeded
permutation databases.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh

from .errors import DegenerateGroundAcrossSweep, InputError, SweepTimeout
from .evolve import DEGENERACY_TOL, _rk4_passage
from .operators import SearchHamiltonian, interpolate

DEFAULT_GRID_POINTS = 1001


@dataclass(frozen=True)
class SpectrumTrace:
    """Sorted eigenvalues of H(s) on a strictly increasing s grid."""

    s_grid: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s_grid, dtype=float)
        lv = np.asarray(self.levels, dtype=float)
        if s.ndim != 1 or lv.ndim != 2 or lv.shape[0] != s.shape[0]:
            raise InputError(f"trace shapes {s.shape} / {lv.shape} are inconsistent")
        if np.any(np.diff(s) <= 0):
            raise InputError("s grid must be strictly increasing")
        object.__setattr__(self, "s_grid", s)
        object.__setattr__(self, "levels", lv)


@dataclass(frozen=True)
class GapReport:
    """Minimum first gap over the sweep and end-point ground degeneracy."""

    min_gap: float
    s_at_min: float
    ground_degeneracy_at_end: int


@dataclass(frozen=True)
class SweepRow:
    """One scaling-sweep record: instance size, min gap, time to 0.9 success."""

    n: int
    N: int
    min_gap: float
    T_to_success: float


def trace_spectrum(H: SearchHamiltonian, grid_points: int = DEFAULT_GRID_POINTS) -> SpectrumTrace:
    """Eigenvalues of (1-s)Hi + s Hp on a uniform s grid, rows ascending."""
    if grid_points < 2:
        raise InputError(f"need at least 2 grid points, got {grid_points}")
    s_grid = np.linspace(0.0, 1.0, grid_points)
    levels = np.empty((grid_points, H.dim))
    for i, s in enumerate(s_grid):
        levels[i] = eigh(interpolate(H, float(s)), eigvals_only=True)
    return SpectrumTrace(s_grid=s_grid, levels=levels)


def min_gap(trace: SpectrumTrace) -> GapReport:
    """Minimum E_1 - E_0 over the grid, with end-point degeneracy count.

    An interior gap below 1e-9 signals a level crossing and emits a
    DegenerateGroundAcrossSweep warning; the report is still returned.
    """
    gaps = trace.levels[:, 1] - trace.levels[:, 0]
    idx = int(np.argmin(gaps))
    interior = gaps[1:-1]
    if interior.size and np.min(interior) < DEGENERACY_TOL:
        where = 1 + int(np.argmin(interior))
        warnings.warn(
            f"ground level degenerate at interior s={trace.s_grid[where]:.6g}",
            DegenerateGroundAcrossSweep,
        )
    final_row = trace.levels[-1]
    degeneracy = int(np.sum(final_row <= final_row[0] + DEGENERACY_TOL))
    return GapReport(
        min_gap=float(gaps[idx]),
        s_at_min=float(trace.s_grid[idx]),
        ground_degeneracy_at_end=degeneracy,
    )


def default_permutation_instance(
    n: int, rng: np.random.Generator, target: float = 1.0
) -> tuple[np.ndarray, float]:
    """Seeded instance rule: values are a random permutation of 1..N, fixed target."""
    values = rng.permutation(np.arange(1, 2**n + 1)).astype(float)
    return values, target


def _success_probability(H: SearchHamiltonian, solution_index: int, T: float) -> float:
    """Final population on the solution index after the RK4 passage.

    The state is renormalized after every step without a drift check.
    """
    for _, psi, _ in _rk4_passage(H, T):
        pass
    return float(np.abs(psi[solution_index]) ** 2)


def _round_2_significant(x: float) -> float:
    if x == 0.0:
        return 0.0
    scale = 10.0 ** (np.floor(np.log10(abs(x))) - 1)
    return float(np.round(x / scale) * scale)


def time_to_success(
    H: SearchHamiltonian,
    solution_index: int,
    threshold: float = 0.9,
    deadline: float | None = None,
) -> float:
    """Smallest T reaching the success threshold, to 2 significant figures.

    Doubles from T=1 until the first crossing, then bisects the bracketing
    interval until both ends round to the same 2-significant-figure value.
    The returned value is verified to clear the threshold itself; when the
    rounded crossing falls just short, the next grid value up is used.
    First-crossing semantics throughout: success is not assumed monotone
    in T pointwise.
    """
    def check_deadline():
        if deadline is not None and time.monotonic() > deadline:
            raise SweepTimeout("scaling-sweep instance exceeded its wall-clock cap")

    def success(T: float) -> float:
        check_deadline()
        return _success_probability(H, solution_index, T)

    T = 1.0
    if success(T) >= threshold:
        return 1.0
    while True:
        T *= 2.0
        if success(T) >= threshold:
            break
        if T > 2**20:
            raise SweepTimeout(f"no success by T={T}; instance looks stuck")
    lo, hi = T / 2.0, T
    while _round_2_significant(lo) != _round_2_significant(hi):
        mid = 0.5 * (lo + hi)
        if success(mid) >= threshold:
            hi = mid
        else:
            lo = mid
    candidate = _round_2_significant(hi)
    if success(candidate) >= threshold:
        return candidate
    ulp = 10.0 ** (np.floor(np.log10(abs(candidate))) - 1)
    stepped = float(candidate + ulp)
    if success(stepped) >= threshold:
        return stepped
    return hi  # oscillation finer than the grid: report the verified bracket end


def gap_scaling_sweep(
    n_range: list[int],
    instance_generator: Callable[[int, np.random.Generator], tuple[np.ndarray, float]] | None = None,
    seed: int = 0,
    g: float = 1.0,
    grid_points: int = DEFAULT_GRID_POINTS,
    success_threshold: float = 0.9,
    instance_timeout_s: float = 60.0,
) -> list[SweepRow]:
    """Minimum gap and time-to-success across database sizes.

    One seeded instance per n: the generator produces the stored values
    (a permutation of 1..N by default) and the target. Results are
    deterministic for a fixed seed.
    """
    if not n_range or any(n < 2 or n > 10 for n in n_range):
        raise InputError(f"n range must be nonempty and lie within [2, 10], got {n_range}")
    if instance_generator is None:
        instance_generator = default_permutation_instance
    rng = np.random.default_rng(seed)
    rows: list[SweepRow] = []
    for n in n_range:
        deadline = time.monotonic() + instance_timeout_s
        values, target = instance_generator(n, rng)
        H = SearchHamiltonian(n, g, (np.asarray(values, dtype=float) - target) ** 2)
        report = min_gap(trace_spectrum(H, grid_points))
        solution = int(np.argmin(H.d))
        T_star = time_to_success(
            H, solution, threshold=success_threshold, deadline=deadline
        )
        rows.append(SweepRow(n=n, N=2**n, min_gap=report.min_gap, T_to_success=T_star))
    return rows
