import itertools

import numpy as np
import pytest
from scipy.linalg import eigh

from adiasearch import spectrum
from adiasearch.errors import DegenerateGroundAcrossSweep, InputError, SweepTimeout
from adiasearch.evolve import RK4_STEPS, EvolutionPlan, evolve_continuous, initial_ground_state
from adiasearch.operators import SearchHamiltonian, initial_hamiltonian, interpolate
from adiasearch.spectrum import (
    SpectrumTrace,
    SweepRow,
    _success_probabilities,
    default_permutation_instance,
    gap_scaling_sweep,
    min_gap,
    time_to_success,
    trace_spectrum,
)
from conftest import reference_time_to_success


def diag_op(values):
    """Search Hamiltonian with field g = 1 and problem diagonal ``values``."""
    n = len(values).bit_length() - 1
    return SearchHamiltonian(n, 1.0, values)


def sweep_instance(n, seed, first_n=None):
    """Search instance and solution index of size n, drawn as the sweep draws it.

    One generator seeded ``seed`` draws an instance for every size from
    ``first_n`` (default n) up to n, in order; the last is returned.
    """
    rng = np.random.default_rng(seed)
    for m in range(first_n or n, n + 1):
        values, target = default_permutation_instance(m, rng)
    H = SearchHamiltonian(n, 1.0, (values - target) ** 2)
    return H, int(np.argmin(H.d))


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


def test_trace_rows_sorted_and_continuous(example_instance):
    H = example_instance
    trace = trace_spectrum(H, 201)
    assert np.all(np.diff(trace.levels, axis=1) >= -1e-12)
    L = np.linalg.norm(np.diag(H.d) - H.Hi, 2)
    ds = np.diff(trace.s_grid)
    jumps = np.abs(np.diff(trace.levels, axis=0))
    assert np.all(jumps <= L * ds[:, None] + 1e-9)


def test_trace_preserves_weighted_trace(example_instance):
    H = example_instance
    trace = trace_spectrum(H, 51)
    tr_i = np.trace(H.Hi).real
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
    assert report.ground_degeneracy_at_end == 1


def test_min_gap_grid_refinement(example_instance):
    H = example_instance
    g1 = min_gap(trace_spectrum(H, 1001)).min_gap
    g2 = min_gap(trace_spectrum(H, 2001)).min_gap
    assert abs(g1 - g2) < 1e-3


def test_min_gap_multi_solution_degeneracy():
    import warnings

    H = diag_op([(v - 2.0) ** 2 for v in (1.0, 2.0, 2.0, 3.0)])
    with warnings.catch_warnings():
        # degeneracy only at the s=1 endpoint: no interior-crossing warning
        warnings.simplefilter("error", DegenerateGroundAcrossSweep)
        report = min_gap(trace_spectrum(H, 501))
    assert report.ground_degeneracy_at_end == 2
    assert report.min_gap == pytest.approx(0.0, abs=1e-12)
    assert report.s_at_min == 1.0


def test_min_gap_constant_when_endpoints_equal():
    # Hi is always the transverse field, so equal endpoints are a hand-made trace.
    trace = constant_trace([0.0, 1.0, 2.0, 4.0], 101)
    gaps = trace.levels[:, 1] - trace.levels[:, 0]
    assert np.allclose(gaps, 1.0, atol=1e-12)
    report = min_gap(trace)
    assert report.min_gap == pytest.approx(1.0, abs=1e-12)
    assert report.ground_degeneracy_at_end == 1


def test_min_gap_warns_on_interior_crossing():
    # The transverse field keeps the ground level simple for s < 1, so a
    # search Hamiltonian never crosses inside the sweep: hand-made trace.
    with pytest.warns(DegenerateGroundAcrossSweep):
        report = min_gap(constant_trace([0.0, 0.0, 1.0, 2.0], 21))
    assert report.ground_degeneracy_at_end == 2


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
    T_star = time_to_success(H, solution_index=3, threshold=0.9)
    assert T_star == pytest.approx(7.5, abs=1e-12)  # frozen protocol output
    # independent check: RK4 at the reported T clears the threshold
    psi = initial_ground_state(2).amplitudes
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
    # Both run the one RK4 propagator: a probe and a linear-schedule
    # continuous search end in the same floats.
    d = (np.array([3.0, 7.0, 1.0, 5.0, 8.0, 2.0, 6.0, 4.0]) - 5.0) ** 2
    H = SearchHamiltonian(3, 1.0, d)
    report = evolve_continuous(H, EvolutionPlan(T=6.0, S=1))
    indices = [int(np.argmin(d)), int(np.argmin(report.probabilities))]
    probes = [_success_probabilities(H, i, 6.0) for i in indices]
    assert np.array_equal(probes, report.probabilities[indices])


@pytest.mark.parametrize(
    "n, seed, first_n",
    [(2, 0, None), (4, 0, 2)],  # the latter is the n = 4 instance of the README sweep
)
def test_batched_search_matches_sequential_search(n, seed, first_n):
    H, solution = sweep_instance(n, seed, first_n)
    probes = {}
    assert time_to_success(H, solution) == reference_time_to_success(H, solution, probes=probes)
    # Each column of a batched pass is the scalar probe, where RK4 is stable.
    stable = sorted(T for T in probes if T <= 8.0)
    batched = _success_probabilities(H, solution, stable)
    assert batched.shape == (len(stable),)
    assert np.allclose(batched, [probes[T] for T in stable], rtol=0.0, atol=1e-13)


# What reference_time_to_success returns on more seeded instances; running
# it costs 10-20 sequential probes per instance, too slow to repeat here.
SEQUENTIAL_T_STAR = {(2, 1): 7.2, (2, 2): 5.4, (3, 0): 48.0, (3, 1): 38.0, (3, 2): 11.0}


@pytest.mark.parametrize("n, seed", sorted(SEQUENTIAL_T_STAR))
def test_batched_search_matches_sequential_answers(n, seed):
    H, solution = sweep_instance(n, seed)
    assert time_to_success(H, solution) == SEQUENTIAL_T_STAR[n, seed]


def test_time_to_success_stuck_instance():
    # The n = 5 instance of the README sweep: RK4 reads p = 0 at every rung.
    H, solution = sweep_instance(5, 0, first_n=2)
    with pytest.raises(SweepTimeout) as info:
        time_to_success(H, solution)
    assert str(info.value) == "no success by T=2097152.0; instance looks stuck"


def test_deadline_holds_inside_a_pass(monkeypatch):
    reads = itertools.count()
    monkeypatch.setattr(spectrum.time, "monotonic", lambda: 0.0 if next(reads) < 3 else 2.0)
    builds = itertools.count()
    at = SearchHamiltonian.at

    def counted_at(self, s):
        next(builds)
        return at(self, s)

    monkeypatch.setattr(SearchHamiltonian, "at", counted_at)
    H, solution = sweep_instance(2, 0)
    with pytest.raises(SweepTimeout, match="exceeded its wall-clock cap"):
        time_to_success(H, solution, deadline=1.0)
    assert next(builds) < 2 * RK4_STEPS  # one pass builds H at 2 * RK4_STEPS + 1 nodes


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
        Hi = initial_hamiltonian(row.n, 1.0)
        best = np.inf
        for s in np.linspace(0, 1, 1001):
            H = (1 - s) * Hi.matrix + s * np.diag((values - target) ** 2)
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


def test_gap_scaling_sweep_timeout():
    with pytest.raises(SweepTimeout):
        gap_scaling_sweep([3], seed=0, instance_timeout_s=-1.0)
