import functools
import itertools
import json
import threading
import time

import numpy as np
import pytest
from scipy.linalg import eigh

from adiasearch import spectrum
from adiasearch.cli import main
from adiasearch.errors import InputError, PhaseBeyondResolution, SweepTimeout
from adiasearch import evolve
from adiasearch.evolve import EvolutionPlan, _passage, evolve_continuous, initial_ground_state
from adiasearch.operators import SearchHamiltonian, interpolate
from adiasearch.spectrum import (
    SpectrumTrace,
    SweepRow,
    default_permutation_instance,
    gap_scaling_sweep,
    min_gap,
    time_to_success,
    trace_spectrum,
)
from conftest import (
    TWO_SOLUTION_LABELS,
    reference_time_to_success,
    solved_matrices,
    success_probabilities,
    transverse_field,
)


def diag_op(values):
    """Search Hamiltonian with field g = 1 and problem diagonal ``values``."""
    n = len(values).bit_length() - 1
    return SearchHamiltonian(n, 1.0, values)


def sweep_instance(n, seed, first_n=None):
    """Search instance of size n, drawn as the sweep draws it.

    One generator seeded ``seed`` draws an instance for every size from
    ``first_n`` (default n) up to n, in order; the last is returned.
    """
    rng = np.random.default_rng(seed)
    for m in range(first_n or n, n + 1):
        values, target = default_permutation_instance(m, rng)
    return SearchHamiltonian(n, 1.0, (values - target) ** 2)


def constant_trace(levels, grid_points):
    """Trace of an s-independent spectrum, the same sorted levels at every s."""
    return SpectrumTrace(
        s_grid=np.linspace(0.0, 1.0, grid_points),
        levels=np.tile(np.asarray(levels, dtype=float), (grid_points, 1)),
    )


def test_trace_endpoints_worked_example(example_instance):
    H = example_instance
    trace = trace_spectrum(H, 101)
    assert np.allclose(trace.levels[0], [-2.0, 0.0, 0.0, 2.0], atol=1e-10)
    assert np.allclose(trace.levels[-1], [0.0, 1.0, 1.0, 4.0], atol=1e-10)


def test_trace_endpoint_for_target_three(example_db):
    # (v - 3)^2 over (4, 3, 1, 2) gives (1, 0, 4, 1): same sorted end row.
    from adiasearch.operators import search_hamiltonian

    trace = trace_spectrum(search_hamiltonian(example_db, 3.0, g=1.0), 11)
    assert np.allclose(trace.levels[-1], [0.0, 1.0, 1.0, 4.0], atol=1e-10)


def test_trace_levels_match_complex_reference_solve():
    # Real eigvalsh against scipy's complex eigh, within its round-off bound.
    H = sweep_instance(7, 0)
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Hi = sum(
        functools.reduce(np.kron, [X if j == k else np.eye(2) for j in range(7)])
        for k in range(7)
    )
    trace = trace_spectrum(H, 101)
    for row in (0, 8, 50, 100):
        s = trace.s_grid[row]
        reference = eigh((1 - s) * Hi + s * np.diag(H.d), eigvals_only=True)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(trace.levels[row] - reference)) <= 1e-13 * scale, s


def test_trace_rows_sorted_and_continuous(example_instance):
    H = example_instance
    trace = trace_spectrum(H, 201)
    assert np.all(np.diff(trace.levels, axis=1) >= -1e-12)
    L = np.linalg.norm(np.diag(H.d) - transverse_field(H.n_qubits, H.g), 2)
    ds = np.diff(trace.s_grid)
    jumps = np.abs(np.diff(trace.levels, axis=0))
    assert np.all(jumps <= L * ds[:, None] + 1e-9)


def test_trace_preserves_weighted_trace(example_instance):
    H = example_instance
    trace = trace_spectrum(H, 51)
    tr_i = np.trace(transverse_field(H.n_qubits, H.g))
    tr_p = np.trace(np.diag(H.d))
    for s, row in zip(trace.s_grid, trace.levels):
        assert np.sum(row) == pytest.approx((1 - s) * tr_i + s * tr_p, abs=1e-8)


def test_trace_requires_two_points(example_instance):
    H = example_instance
    with pytest.raises(InputError):
        trace_spectrum(H, 1)


def test_min_gap_worked_example(example_instance):
    H = example_instance
    report = min_gap(trace_spectrum(H, 1001))
    assert report.min_gap == pytest.approx(0.8919715, abs=1e-6)
    assert report.s_at_min == pytest.approx(0.791, abs=1e-3)


def test_min_gap_grid_refinement(example_instance):
    H = example_instance
    g1 = min_gap(trace_spectrum(H, 1001)).min_gap
    g2 = min_gap(trace_spectrum(H, 2001)).min_gap
    assert abs(g1 - g2) < 1e-3


def test_min_gap_multi_solution_degeneracy(capsys):
    H = diag_op([(v - 2.0) ** 2 for v in (1.0, 2.0, 2.0, 3.0)])
    report = min_gap(trace_spectrum(H, 501))
    # degeneracy only at the s=1 endpoint: no interior-crossing warning
    assert capsys.readouterr().err == ""
    assert report.min_gap == pytest.approx(0.0, abs=1e-12)
    assert report.s_at_min == 1.0


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_solution_count_is_the_spectrum_end_degeneracy(tmp_path, n, m):
    # Tables of m rows storing the target 0 among the values 1..N: the gap
    # report's end degeneracy counts the rows that store the target.
    values = np.arange(1, 2**n + 1)
    values[np.linspace(0, 2**n - 1, m).astype(int)] = 0
    db = tmp_path / "table.csv"
    db.write_text("key,value\n" + "".join(f"k{i},{v}\n" for i, v in enumerate(values)), encoding="utf-8")
    out = tmp_path / "trace.csv"
    assert main(["spectrum", "--db", str(db), "--target", "0", "--grid", "101", "--out", str(out)]) == 0
    assert json.loads(out.with_suffix(".gap.json").read_text())["ground_degeneracy_at_end"] == m


def test_min_gap_constant_when_endpoints_equal():
    # H(0) is always the transverse field, so equal endpoints are a hand-made trace.
    trace = constant_trace([0.0, 1.0, 2.0, 4.0], 101)
    gaps = trace.levels[:, 1] - trace.levels[:, 0]
    assert np.allclose(gaps, 1.0, atol=1e-12)
    report = min_gap(trace)
    assert report.min_gap == pytest.approx(1.0, abs=1e-12)


def test_min_gap_warns_on_interior_crossing(capsys):
    # The transverse field keeps the ground level simple for s < 1, so a
    # search Hamiltonian never crosses inside the sweep: hand-made trace.
    report = min_gap(constant_trace([0.0, 0.0, 1.0, 2.0], 21))
    assert capsys.readouterr().err == "warning: ground level degenerate at interior s=0.05\n"
    assert report.min_gap == 0.0


def test_identity_permutation_gaps():
    """Frozen gaps for values 1..N, target 1: nearly flat in n, not shrinking.

    Direct eigensolves on the 1001-point grid give 0.899645 (n=2) and
    0.900481 (n=3): the gap grows slightly with n for this family because
    the quadratic penalty spreads the upper spectrum.
    """
    gaps = {}
    for n in (2, 3):
        values = np.arange(1, 2**n + 1, dtype=float)
        H = diag_op((values - 1.0) ** 2)
        gaps[n] = min_gap(trace_spectrum(H, 1001)).min_gap
    assert gaps[2] == pytest.approx(0.899645, abs=1e-6)
    assert gaps[3] == pytest.approx(0.900481, abs=1e-6)
    assert gaps[3] > gaps[2]


def test_default_permutation_instance_seeded():
    rng = np.random.default_rng(42)
    values, target = default_permutation_instance(3, rng)
    assert sorted(values) == list(range(1, 9))
    assert target == 1.0
    rng2 = np.random.default_rng(42)
    values2, _ = default_permutation_instance(3, rng2)
    assert np.array_equal(values, values2)


def test_time_to_success_first_crossing(example_instance):
    H = example_instance
    assert H.solutions.tolist() == [3]
    T_star = time_to_success(H)
    assert T_star == pytest.approx(7.5, abs=1e-12)  # frozen protocol output
    # independent check: RK4 at the reported T clears the threshold
    psi = initial_ground_state(2)
    steps = 4000
    h = T_star / steps
    for m in range(steps):
        def H_of(f):
            return interpolate(H, min(f, 1.0))
        k1 = -1j * (H_of(m / steps) @ psi)
        k2 = -1j * (H_of((m + 0.5) / steps) @ (psi + h / 2 * k1))
        k3 = -1j * (H_of((m + 0.5) / steps) @ (psi + h / 2 * k2))
        k4 = -1j * (H_of((m + 1) / steps) @ (psi + h * k3))
        psi = psi + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        psi = psi / np.linalg.norm(psi)
    assert abs(psi[3]) ** 2 >= 0.9


def test_success_probe_matches_continuous_search():
    # Both run the one CF4 passage: a probe pass at the continuous search's
    # reported step count ends in the same floats.
    d = (np.array([3.0, 7.0, 1.0, 5.0, 8.0, 2.0, 6.0, 4.0]) - 5.0) ** 2
    H = SearchHamiltonian(3, 1.0, d)
    report = evolve_continuous(H, EvolutionPlan(T=6.0, S=1))
    *_, psi = _passage(H, [6.0], report.steps)
    assert np.array_equal(np.abs(psi[:, 0]) ** 2, report.probabilities)


@pytest.mark.parametrize(
    "n, seed, first_n",
    [
        (2, 0, None),
        (4, 0, 2),  # the n = 4 instance of the README sweep
        (4, 1417229449, None),  # T* = 160: its grid joins the passes of rungs past 128
    ],
)
def test_batched_search_matches_sequential_search(n, seed, first_n):
    H = sweep_instance(n, seed, first_n)
    probes = {}
    assert time_to_success(H) == reference_time_to_success(H, probes=probes)
    # Each column of a batched pass is the scalar pass at the same step count.
    Ts = sorted(probes)
    *_, batched = _passage(H, Ts, 200)
    assert batched.shape == (H.dim, len(Ts))
    for b, T in enumerate(Ts):
        *_, scalar = _passage(H, T, 200)
        assert np.allclose(batched[:, b], scalar[:, 0], rtol=0.0, atol=1e-13)


# What reference_time_to_success returns on more seeded instances. Each
# T* reaches 0.9 under a step-doubled scipy expm Magnus-4 reference
# converged to 1e-7, and the grid value below it does not.
SEQUENTIAL_T_STAR = {(2, 1): 7.2, (2, 2): 5.4, (3, 0): 48.0, (3, 1): 38.0, (3, 2): 11.0}


@pytest.mark.parametrize("n, seed", sorted(SEQUENTIAL_T_STAR))
def test_batched_search_matches_sequential_answers(n, seed):
    H = sweep_instance(n, seed)
    assert time_to_success(H) == SEQUENTIAL_T_STAR[n, seed]


def test_time_to_success_first_grid_crossing_of_an_oscillation():
    # n = 4, seed 4: p(T) = 0.8968, 0.9057, 0.8981, 0.8900, 0.8970, 0.9148 at
    # T = 32..37 (converged Magnus-4 reference), so p crosses 0.9 at 33 and
    # again at 37.
    H = sweep_instance(4, 4)
    assert time_to_success(H) == 33.0
    assert success_probabilities(H, 33.0) >= 0.9
    assert success_probabilities(H, [32.0, 34.0, 35.0, 36.0]).max() < 0.9


def counted_solves(monkeypatch) -> list:
    """Patch the node solver so each eigh appends its matrices to the returned list."""
    solves = []

    def counted_eigh(A):
        solves.extend(solved_matrices(A))
        return np.linalg.eigh(A)

    monkeypatch.setattr(evolve, "eigh", counted_eigh)
    return solves


def test_time_to_success_runs_the_ladder_then_the_grid(monkeypatch):
    # The n = 5 instance of the gap_sweep benchmark's seed 1. Rung 256
    # brackets the answer in (128, 256]; that grid joins the rungs' passes,
    # so each of M = 100..1600 solves its nodes once, besides the grid's
    # replay of M = 100..400.
    solves = counted_solves(monkeypatch)
    H = sweep_instance(5, 142105610)
    T_star = time_to_success(H)
    assert T_star == 130.0
    assert T_star in spectrum._two_figure_grid(128.0, 256.0)
    assert len(solves) <= 7_600


def test_two_figure_grid():
    grid = spectrum._two_figure_grid(4.0, 8.0)
    assert (repr(grid[0]), len(grid), grid[-1]) == ("4.1", 40, 8.0)
    grid = spectrum._two_figure_grid(512.0, 1024.0)
    assert (grid[-2:], len(grid)) == ([1000.0, 1100.0], 50)
    ladder = [2.0**k for k in range(12)]  # time_to_success's rungs
    for lo, hi in zip(ladder, ladder[1:]):
        grid = spectrum._two_figure_grid(lo, hi)
        assert len(grid) <= 50
        assert lo < grid[0] and grid[-1] >= hi and all(T < hi for T in grid[:-1])
        assert grid == sorted(set(grid))
        assert all(T == float(f"{T:.2g}") for T in grid)  # the double nearest its decimal


def test_time_to_success_readme_n5_instance(monkeypatch):
    # The n = 5 instance of the README sweep. Converged p is 0.8307 at
    # T = 1024, 0.8955 at 1300, 0.9127 at 1400 and 0.9719 at 2048.
    solves = counted_solves(monkeypatch)
    H = sweep_instance(5, 0, first_n=2)
    T_star = time_to_success(H)
    assert 1024.0 < T_star <= 2048.0
    assert T_star == 1400.0
    assert len(solves) <= 26_800


def test_time_to_success_stuck_instance(monkeypatch):
    # An n = 5 instance that reaches 0.9 nowhere on the ladder T = 2^0..2^11:
    # all twelve rungs share each pass of M = 100..400.
    solves = counted_solves(monkeypatch)
    H = sweep_instance(5, 256501328)
    with pytest.raises(SweepTimeout) as info:
        time_to_success(H)
    assert str(info.value) == "no success by T=2048.0; instance looks stuck"
    assert len(solves) <= 1_400


def test_time_to_success_of_a_two_solution_table():
    # Each of the two solutions ends near 1/2, so neither alone reaches 0.9,
    # but their set holds 0.8901 at T = 14 and 0.9046 at T = 15. The labels
    # 1..15 are their own rank codes.
    H = SearchHamiltonian(4, 1.0, (np.array(TWO_SOLUTION_LABELS, dtype=float) - 9.0) ** 2)
    assert H.solutions.tolist() == [8, 9]
    assert time_to_success(H) == 15.0
    below, reached = (
        evolve_continuous(H, EvolutionPlan(T=T, S=1)).probabilities[H.solutions] for T in (14.0, 15.0)
    )
    assert below.sum() == pytest.approx(0.8901, abs=1e-4) and below.sum() < 0.9
    assert reached.sum() == pytest.approx(0.9046, abs=1e-4) and reached.sum() >= 0.9
    assert reached.max() < 0.9


@pytest.mark.parametrize(
    "n, steps, reference",
    [
        (5, 6400, {256.0: 0.3643, 1024.0: 0.8307, 2048.0: 0.9719}),
        (6, 3200, {256.0: 0.7165, 512.0: 0.9177}),
    ],
)
def test_passage_matches_converged_reference(n, steps, reference):
    # README sweep instances; the reference populations are step-doubled and
    # converged to 1e-4. One batched pass serves every T.
    H = sweep_instance(n, 0, first_n=2)
    *_, psi = _passage(H, list(reference), steps)
    p = (np.abs(psi[H.solutions]) ** 2).sum(0)
    assert np.max(np.abs(p - list(reference.values()))) <= 1e-3


@pytest.mark.parametrize(
    "n, ceiling", [(5, 1_638_400), (6, 204_800), (7, 25_600), (8, 3_200), (9, 400), (10, 50)]
)
def test_probe_step_ceiling_falls_eightfold_per_qubit_past_n5(n, ceiling):
    H = SearchHamiltonian(n, 1.0, np.arange(2.0**n))
    spectrum._check_probe_pass(H, ceiling)
    refused = rf"^probe pass of M={ceiling + 1} steps exceeds the n={n} step ceiling {ceiling}$"
    with pytest.raises(SweepTimeout, match=refused):
        spectrum._check_probe_pass(H, ceiling + 1)


def test_probe_pass_past_the_ceiling_is_refused_before_its_solves(monkeypatch):
    # MAX_STEPS = 800 puts the n = 6 ceiling at 800 / 2^3 = 100 steps: the
    # first pass solves H at its 2M = 200 nodes, and the second, at M = 200,
    # is refused before its first solve.
    monkeypatch.setattr(spectrum, "MAX_STEPS", 800)
    solves = counted_solves(monkeypatch)
    H = sweep_instance(6, 0)
    with pytest.raises(SweepTimeout, match=r"^probe pass of M=200 steps exceeds the n=6 step ceiling 100$"):
        success_probabilities(H, [64.0, 128.0])
    assert len(solves) == 200


def test_probe_pass_at_the_n5_ceiling_is_refused_as_a_sweep_timeout(monkeypatch):
    # Up to n = 5 the sweep ceiling is MAX_STEPS itself (one object in evolve
    # and spectrum). The seeded n = 5 instance's rungs run passes at M = 100
    # and 200, 600 node solves; the pass at M = 400 is refused before its
    # first solve, by the sweep ceiling's rule and message.
    monkeypatch.setattr(evolve, "MAX_STEPS", 200)
    monkeypatch.setattr(spectrum, "MAX_STEPS", 200)
    solves = counted_solves(monkeypatch)
    H = sweep_instance(5, 142105610)
    with pytest.raises(SweepTimeout, match=r"^probe pass of M=400 steps exceeds the n=5 step ceiling 200$"):
        time_to_success(H)
    assert len(solves) == 2 * (100 + 200)


def test_probe_pass_refuses_phases_past_float64_resolution():
    H = SearchHamiltonian(2, 1e150, [0.0, 1.0, 4.0, 9.0])
    refused = r"^step phase .* rad at M=100 steps exceeds 2\^52 rad, past float64 resolution$"
    with pytest.raises(PhaseBeyondResolution, match=refused):
        success_probabilities(H, [1.0, 10.0])


def test_sweep_refuses_n10_before_any_solve(monkeypatch):
    # The n = 10 ceiling, 50 steps, is below the first pass's 100: the
    # instance is refused before its level trace.
    solves = []

    def counted(solver):
        return lambda A: solves.extend(solved_matrices(A)) or solver(A)

    monkeypatch.setattr(spectrum, "eigvalsh", counted(np.linalg.eigvalsh))
    monkeypatch.setattr(evolve, "eigh", counted(np.linalg.eigh))
    with pytest.raises(SweepTimeout, match=r"^probe pass of M=100 steps exceeds the n=10 step ceiling 50$"):
        gap_scaling_sweep([10])
    assert solves == []


def test_sweep_rows_do_not_read_the_clock(monkeypatch):
    rows = gap_scaling_sweep([2, 3], seed=0)
    hours = itertools.count(0.0, 3600.0)
    monkeypatch.setattr(time, "monotonic", lambda: next(hours))
    assert gap_scaling_sweep([2, 3], seed=0) == rows


def test_closed_passage_cancels_its_queued_block(monkeypatch, solver_workers):
    # Two workers take blocks of 32 nodes (n = 4), 4 ahead of the state. The
    # first block is solved at once; the next two hold both workers until the
    # queued fourth is cancelled, whose cancellation releases them. Closing
    # the passage after its first block must cancel that block and wait for
    # the two running ones.
    solver_workers(2)
    H = sweep_instance(4, 0)
    first = interpolate(H, (1 / 6) / 100)
    held, release = threading.Barrier(3), threading.Event()

    def held_eigh(A):
        if not np.array_equal(A[0], first):
            held.wait(timeout=60)  # a timeout breaks the barrier instead of hanging the suite
            release.wait(timeout=60)
        return np.linalg.eigh(A)

    pool = evolve._solver_pool()
    submit, futures = pool.submit, []
    monkeypatch.setattr(pool, "submit", lambda *args: futures.append(submit(*args)) or futures[-1])
    monkeypatch.setattr(evolve, "eigh", held_eigh)
    passage = _passage(H, [1.0], 100)
    next(passage)
    held.wait(timeout=60)  # both workers hold a block, so the fourth is still queued
    assert len(futures) == 4 and not futures[-1].running()
    futures[-1].add_done_callback(lambda _: release.set())
    passage.close()
    assert all(future.done() for future in futures)
    assert futures[-1].cancelled() and not any(future.cancelled() for future in futures[:-1])


# Matrices per block, the GIL floor max(1, 512 // N).
BLOCK_SIZES = {1: 256, 2: 128, 3: 64, 4: 32, 5: 16, 6: 8, 7: 4, 8: 2, 9: 1, 10: 1}
BLOCK_CASES = [pytest.param(n, "eigvalsh", id=str(n)) for n in BLOCK_SIZES] + [
    pytest.param(n, "eigh", id=f"{n}-eigh") for n in BLOCK_SIZES
]


@pytest.mark.parametrize("n, solver", BLOCK_CASES)
def test_trace_blocks_are_long_enough_for_numpy_to_release_the_gil(monkeypatch, solver_workers, n, solver):
    # numpy's linalg loop releases the GIL only past 500 entries, and a block
    # of b N x N matrices gives eigvalsh b * N of them. Both solvers take
    # blocks of one rule; only the last may hold fewer than 512 entries.
    # eigvalsh runs in a level trace, eigh in ``_solves`` itself, each on a
    # grid of two full blocks and one more point.
    solver_workers(2)
    H = SearchHamiltonian(n, 1.0, np.arange(2.0**n))
    grid_points = 2 * BLOCK_SIZES[n] + 1
    s_grid = np.linspace(0.0, 1.0, grid_points)
    built, solved = [], []

    def recorded(H, s):
        built.append(interpolate(H, s))
        return built[-1]

    def counted(A):
        solved.append(A)
        return getattr(np.linalg, solver)(A)

    monkeypatch.setattr(evolve, "interpolate", recorded)
    if solver == "eigvalsh":
        monkeypatch.setattr(spectrum, "eigvalsh", counted)
        trace_spectrum(H, grid_points)
    else:
        assert len(list(evolve._solves(H, s_grid, counted))) == grid_points
    assert len(built) > 1 and sorted(map(id, solved)) == sorted(map(id, built))
    assert np.array_equal(np.concatenate(built), interpolate(H, s_grid))
    assert [len(A) for A in built[:-1]] == [BLOCK_SIZES[n]] * (len(built) - 1)
    assert 0 < len(built[-1]) <= BLOCK_SIZES[n]
    for A in built[:-1]:
        assert len(A) * H.dim >= 512, len(A)


@pytest.mark.parametrize("n", [2, 5, 7])
def test_passage_blocks_release_the_gil_and_bound_their_phases(monkeypatch, solver_workers, n):
    # A CF4 pass of 200 nodes and B = 50 columns: every full block holds at
    # least 512 eigenvalue rows, and each block's phases, N x B per node, at
    # most max(512, N) * B entries.
    solver_workers(2)
    H = SearchHamiltonian(n, 1.0, np.arange(2.0**n))
    Ts = np.linspace(1.0, 50.0, 50)
    blocks, solve = [], evolve._eigensystem

    def recorded(A, z=None):
        solved = solve(A, z)
        blocks.append((len(A), solved[2].size))
        return solved

    monkeypatch.setattr(evolve, "_eigensystem", recorded)
    for _ in _passage(H, Ts, 100):
        pass
    sizes = sorted(size for size, _ in blocks)
    assert sum(sizes) == 200 and sizes[1:] == [BLOCK_SIZES[n]] * (len(sizes) - 1)
    assert all(size * H.dim >= 512 for size in sizes[1:])
    assert all(entries == size * H.dim * Ts.size <= max(512, H.dim) * Ts.size for size, entries in blocks)


@pytest.mark.parametrize("grid_points", [2, 11, 64, 101, 1001])
@pytest.mark.parametrize("n", range(2, 9))
def test_pooled_trace_gives_the_bits_of_per_point_eigvalsh(solver_workers, n, grid_points):
    # Blocks hold 512 // N rows, 128 at n = 2 down to 2 at n = 8: the grids
    # end inside a block and at its edge, or fit in one block.
    H = sweep_instance(n, 0)
    s_grid = np.linspace(0.0, 1.0, grid_points)
    expected = np.array([np.linalg.eigvalsh(interpolate(H, float(s))) for s in s_grid])
    for workers in (1, 2):
        solver_workers(workers)
        trace = trace_spectrum(H, grid_points)
        assert trace.s_grid.tobytes() == s_grid.tobytes()
        assert trace.levels.tobytes() == expected.tobytes()


def test_gap_scaling_sweep_deterministic():
    rows1 = gap_scaling_sweep([2], seed=7)
    rows2 = gap_scaling_sweep([2], seed=7)
    assert rows1 == rows2
    assert isinstance(rows1[0], SweepRow)
    assert rows1[0].N == 4
    assert rows1[0].min_gap > 0
    assert rows1[0].T_to_success > 0


def test_gap_scaling_sweep_matches_direct_eigensolve():
    rows = gap_scaling_sweep([2, 3], seed=123)
    rng = np.random.default_rng(123)
    for row in rows:
        values, target = default_permutation_instance(row.n, rng)
        Hi = transverse_field(row.n, 1.0)
        best = np.inf
        for s in np.linspace(0, 1, 1001):
            H = (1 - s) * Hi + s * np.diag((values - target) ** 2)
            w = eigh(H, eigvals_only=True)
            best = min(best, w[1] - w[0])
        assert row.min_gap == pytest.approx(best, abs=1e-12)


def test_gap_scaling_sweep_validates_range():
    with pytest.raises(InputError):
        gap_scaling_sweep([1])
    with pytest.raises(InputError):
        gap_scaling_sweep([11])
    with pytest.raises(InputError):
        gap_scaling_sweep([])
