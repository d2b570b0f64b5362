import multiprocessing

import numpy as np
import pytest
from scipy.linalg import expm

from adiasearch.errors import (
    InputError,
    NonFiniteResult,
    NotConverged,
    NotNormalized,
    PhaseBeyondResolution,
)
from adiasearch import evolve
from adiasearch.evolve import (
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
from adiasearch.operators import SearchHamiltonian, interpolate
from adiasearch.spectrum import default_permutation_instance
from conftest import expm_step, random_hermitian, solved_matrices, transverse_field

REFERENCE_POPULATIONS = np.array([0.0, 0.014, 0.014, 0.972])


def test_initial_ground_state_small():
    assert np.allclose(initial_ground_state(1), np.array([1, -1]) / np.sqrt(2))
    assert np.allclose(initial_ground_state(2), 0.5 * np.array([1, -1, -1, 1]))


def test_initial_ground_state_signs_are_popcount_parities():
    for n in range(1, 11):
        dim = 2**n
        reference = np.array([(-1) ** bin(j).count("1") for j in range(dim)], dtype=complex)
        reference /= np.sqrt(dim)
        assert initial_ground_state(n).tobytes() == reference.tobytes(), n


def test_initial_ground_state_is_made_once_per_n_read_only():
    psi = initial_ground_state(3)
    assert initial_ground_state(3) is psi
    assert not psi.flags.writeable


def test_initial_ground_state_is_eigenstate():
    for n in (1, 2, 3, 4):
        g = 1.3
        H = transverse_field(n, g)
        psi = initial_ground_state(n)
        assert np.allclose(H @ psi, -n * g * psi)


def test_plan_tau_and_validation():
    plan = EvolutionPlan(T=10.45, S=10)
    assert plan.tau == pytest.approx(0.95)
    with pytest.raises(InputError):
        EvolutionPlan(T=0.0, S=10)
    with pytest.raises(InputError):
        EvolutionPlan(T=1.0, S=0)


def test_quantum_state_norm_checked():
    with pytest.raises(NotNormalized):
        QuantumState(np.array([1.0, 1.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteResult):
            QuantumState(np.array([bad, 0.0]))


def test_continuous_short_time_limit(example_instance):
    H = example_instance
    report = evolve_continuous(H, EvolutionPlan(T=1e-6, S=1))
    psi0 = initial_ground_state(2)
    assert abs(np.vdot(report.final_state.amplitudes, psi0)) ** 2 > 1 - 1e-6


def test_continuous_adiabatic_limit(example_instance):
    H = example_instance
    report = evolve_continuous(H, EvolutionPlan(T=100.0, S=10))
    V, count = evolve._eigensystem(np.diag(H.d))
    assert evolve._ground_share(count, V.T @ report.final_state.amplitudes) >= 0.99
    assert report.probabilities[3] >= 0.99


def test_continuous_matches_reference_populations(example_instance, reference_plan):
    H = example_instance
    report = evolve_continuous(H, reference_plan)
    assert np.all(np.abs(report.probabilities - REFERENCE_POPULATIONS) < 0.02)


def expm_fine_steps(H, T, steps):
    """Independent reference: midpoint exponentials exp(-i h H(t/T)) by scipy expm."""
    Hx, Hp = transverse_field(H.n_qubits, H.g), np.diag(H.d)
    psi = initial_ground_state(H.n_qubits)
    h = T / steps
    for m in range(steps):
        s = (m + 0.5) / steps
        psi = expm(-1j * h * ((1 - s) * Hx + s * Hp)) @ psi
    return np.abs(psi) ** 2


def test_continuous_steep_instance_matches_expm_product():
    # ||Hp|| = 9000 at T = 100: a step of 0.01 carries phases up to 90 rad, far
    # past explicit RK4's stability limit; exponential steps stay unitary.
    steep = SearchHamiltonian(2, 1.0, [0.0, 1e3, 4e3, 9e3])
    report = evolve_continuous(steep, EvolutionPlan(T=100.0, S=1))
    assert report.error_estimate <= evolve.POPULATION_TOL
    reference = expm_fine_steps(steep, 100.0, 2**15)
    assert np.max(np.abs(report.probabilities - reference)) <= 1e-4


def test_continuous_refuses_passes_past_the_step_ceiling(monkeypatch):
    monkeypatch.setattr(evolve, "MAX_STEPS", 400)
    steep = SearchHamiltonian(2, 1.0, [0.0, 1e3, 4e3, 9e3])
    with pytest.raises(NotConverged, match=r"^no convergence by M=400 steps; last change \d"):
        evolve_continuous(steep, EvolutionPlan(T=100.0, S=1))


def test_continuous_refuses_phases_past_float64_resolution():
    H = SearchHamiltonian(2, 1e150, [0.0, 1.0, 4.0, 9.0])
    with pytest.raises(PhaseBeyondResolution, match=r"at M=100 steps .*; last change none yet$"):
        evolve_continuous(H, EvolutionPlan(T=10.45, S=10))


def test_continuous_takes_two_eigh_per_step(monkeypatch):
    # Passes at M = 100, 200, ...: each solves H at (m + 1/6) / M and (m + 5/6) / M.
    # H(s) is built in blocks on the calling thread and each block solved once.
    built, solved = [], []

    def recorded(H, s):
        built.append(interpolate(H, s))
        return built[-1]

    def counted_eigh(A):
        solved.append(A)
        return np.linalg.eigh(A)

    monkeypatch.setattr(evolve, "interpolate", recorded)
    monkeypatch.setattr(evolve, "eigh", counted_eigh)
    H = SearchHamiltonian(1, 1.0, [1.0, 0.0])
    report = evolve_continuous(H, EvolutionPlan(T=9.8, S=10))
    passes = [100]
    while passes[-1] < report.steps:
        passes.append(2 * passes[-1])
    assert passes[-1] == report.steps and len(passes) >= 2
    nodes = [(m + c) / M for M in passes for m in range(M) for c in (1 / 6, 5 / 6)]
    trace = [k / 100 for k in range(101)]
    matrices = [A for block in built for A in solved_matrices(block)]
    assert len(matrices) == len(nodes + trace)
    for A, s in zip(matrices, nodes + trace):  # every node once, then the trace points
        assert np.array_equal(A, interpolate(H, s)), s
    assert sum(len(solved_matrices(A)) for A in solved) == sum(2 * M for M in passes) + 101
    assert sorted(map(id, solved)) == sorted(map(id, built))  # one eigh per H built


def per_node_solves(H, s, solver):
    """Reference node solver: one scalar interpolate and one solver call per node."""
    return (solver(interpolate(H, x)) for x in s)


@pytest.mark.parametrize("n, M", [(2, 300), (3, 300), (4, 300), (5, 300), (6, 300), (7, 200)])
def test_pooled_solves_give_the_bits_of_per_node_eigh(monkeypatch, solver_workers, n, M):
    # Blocks hold 512 // N matrices, 128 at n = 2 down to 4 at n = 7. A pass
    # yields every 2M/100 nodes (6 at M = 300, 4 at M = 200), so blocks end
    # both inside a trace chunk and at its edge (at n = 7 only at its edge);
    # S = 69 makes 70 steps.
    H = SearchHamiltonian(n, 1.0, np.random.default_rng(n).uniform(0, 4, size=2**n))

    def run() -> tuple:
        states = [psi.tobytes() for psi in evolve._passage(H, [0.5, 3.0], M)]
        continuous = evolve_continuous(H, EvolutionPlan(T=0.5, S=1))
        discrete = evolve_discrete_exact(H, EvolutionPlan(T=3.0, S=69))
        return states, *[
            (r.final_state.amplitudes.tobytes(), r.ground_population_trace, r.steps)
            for r in (continuous, discrete)
        ]

    results = []
    for workers in (1, 2):
        solver_workers(workers)
        results.append(run())
        assert evolve._solver_pool.cache_info().currsize == 1
    monkeypatch.setattr(evolve, "_solves", per_node_solves)
    assert results[0] == results[1] == run()


@pytest.mark.parametrize("n", [2, 5, 6, 7])
def test_pooled_audit_gives_the_bits_of_per_step_eigh(monkeypatch, solver_workers, n):
    # Blocks hold 512 // N steps: S = 160 makes 161 steps, 2 blocks, at n = 2,
    # and S = 40 makes 41 steps, 3 blocks at n = 5, 6 at n = 6 and 11 at n = 7.
    H = SearchHamiltonian(n, 1.0, np.random.default_rng(n).uniform(0, 4, size=2**n))
    plan = EvolutionPlan(T=5.0, S=160 if n == 2 else 40)

    def run() -> tuple:
        audit = trotter_fidelity_audit(H, plan)
        report = evolve_trotter(H, plan)
        return audit, report.final_state.amplitudes.tobytes(), report.ground_population_trace

    results = []
    for workers in (1, 2):
        solver_workers(workers)
        results.append(run())
        assert evolve._solver_pool.cache_info().currsize == 1
    monkeypatch.setattr(evolve, "_solves", per_node_solves)
    assert results[0] == results[1] == run()


@pytest.mark.parametrize("n", range(1, 8))
def test_step_phases_follow_one_rule(n):
    # Every step loop's phases are e^{w z} for its exponent factor z, with the
    # bits of the direct expressions: -1j tau w in either order for exact and
    # audit steps, w (-0.5j T / M) per CF4 column.
    # The stacks end at s = 1, where one instance has a level of exactly 0
    # and another levels near 1e10.
    rng = np.random.default_rng(n)
    s = np.linspace(0.0, 1.0, 7)
    Ts = np.array([0.5, 3.0, 62.7, 1e4])
    diagonals = [
        rng.uniform(0, 4, size=2**n),
        np.concatenate([[0.0], rng.uniform(0, 4, size=2**n - 1)]),
        rng.uniform(-1e10, 1e10, size=2**n),
    ]
    for d in diagonals:
        A = interpolate(SearchHamiltonian(n, 1.3, d), s)
        w = np.linalg.eigh(A)[0]
        for plan in (EvolutionPlan(T=10.45, S=10), EvolutionPlan(T=1e3 * n, S=69)):
            tau = plan.tau
            phases = evolve._eigensystem(A, -1j * tau)[2].view(np.int64)
            assert np.array_equal(phases, np.exp(-1j * tau * w).view(np.int64))
            assert np.array_equal(phases, np.exp(-1j * w * tau).view(np.int64))
        for M in (100, 800):
            columns = evolve._eigensystem(A, -0.5j * Ts / M)[2].view(np.int64)
            assert np.array_equal(columns, np.exp(w[..., None] * (-0.5j * Ts / M)).view(np.int64))
    assert np.any(np.linalg.eigh(interpolate(SearchHamiltonian(n, 1.3, diagonals[1]), 1.0))[0] == 0)


def test_one_block_jobs_never_start_the_pool(monkeypatch, example_instance, reference_plan, tmp_path):
    from adiasearch import cli

    def no_pool():
        raise AssertionError("the node-solve pool was started")

    monkeypatch.setattr(evolve, "_solver_pool", no_pool)
    evolve_discrete_exact(example_instance, reference_plan)  # the worked example: 11 solves
    assert cli.main(["search", "--out", str(tmp_path / "report.json")]) == 0


def test_forked_child_builds_its_own_pool(solver_workers):
    solver_workers(2)
    H = SearchHamiltonian(3, 1.0, np.arange(8.0))
    expected = [psi.tobytes() for psi in evolve._passage(H, [2.0], 100)]
    assert evolve._solver_pool.cache_info().currsize == 1
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)

    def child():
        fresh = evolve._solver_pool.cache_info().currsize == 0
        send.send((fresh, [psi.tobytes() for psi in evolve._passage(H, [2.0], 100)]))

    process = context.Process(target=child)
    process.start()
    try:
        assert receive.poll(60), "the forked child did not answer"
        fresh, states = receive.recv()
    finally:
        process.join(10)
        if process.is_alive():
            process.kill()
    assert fresh and states == expected


@pytest.mark.parametrize(
    "evolution,phase_checks", [(evolve_discrete_exact, 1), (evolve_trotter, 7)]
)
def test_stepwise_evolutions_take_one_eigh_per_step(monkeypatch, evolution, phase_checks):
    # S + 1 steps, each solving H(s/S) once; step 0's H(0) also gives the
    # trace's starting point. The step phase is checked once per plan, or by
    # each public trotter_step the split evolution makes.
    H = SearchHamiltonian(3, 1.3, np.random.default_rng(5).uniform(0, 4, size=8))
    plan = EvolutionPlan(T=7.0, S=6)
    V, count = evolve._eigensystem(interpolate(H, 0.0))
    start = evolve._ground_share(count, V.T @ initial_ground_state(3))
    solves, checks = [], []
    check = evolve._check_step_phase

    def counted_eigh(A):
        solves.extend(solved_matrices(A))
        return np.linalg.eigh(A)

    def counted_check(*args):
        checks.append(args)
        return check(*args)

    monkeypatch.setattr(evolve, "eigh", counted_eigh)
    monkeypatch.setattr(evolve, "_check_step_phase", counted_check)
    report = evolution(H, plan)
    assert len(solves) == plan.S + 1
    for s, A in enumerate(solves):
        assert np.array_equal(A, interpolate(H, s / plan.S))
    assert len(checks) == phase_checks
    assert report.ground_population_trace[0] == (0.0, start)
    assert [x for x, _ in report.ground_population_trace] == [0.0] + [
        s / plan.S for s in range(plan.S + 1)
    ]


@pytest.mark.parametrize(
    "step",
    [evolve_discrete_exact, lambda H, plan: trotter_step(H, plan, 3)],
    ids=["evolve_discrete_exact", "trotter_step"],
)
def test_public_steps_check_the_step_phase(step):
    H = SearchHamiltonian(2, 1e150, [0.0, 1.0, 4.0, 9.0])
    with pytest.raises(PhaseBeyondResolution, match=r"^step phase .* past float64 resolution$"):
        step(H, EvolutionPlan(T=10.45, S=10))


def test_discrete_exact_reference_populations(example_instance, reference_plan):
    H = example_instance
    report = evolve_discrete_exact(H, reference_plan)
    assert np.all(np.abs(report.probabilities - REFERENCE_POPULATIONS) < 0.01)
    assert report.method == "discrete-exact"


def test_discrete_exact_global_phase_case():
    # Hp = c*I commutes with Hi and the initial ground state stays an
    # eigenstate of every H(s), so only a global phase accrues.
    H = SearchHamiltonian(2, 1.0, [0.6, 0.6, 0.6, 0.6])
    plan = EvolutionPlan(T=2 * 0.7, S=1)
    report = evolve_discrete_exact(H, plan)
    assert np.allclose(report.probabilities, 0.25)
    psi0 = initial_ground_state(2)
    assert abs(np.vdot(report.final_state.amplitudes, psi0)) ** 2 == pytest.approx(1.0)


def expm_step_product(n, d, plan):
    """Independent oracle: the same step grid, exponentials via scipy expm."""
    Hi = transverse_field(n, 1.0)
    Hp = np.diag(d).astype(complex)
    psi_ref = initial_ground_state(n)
    for s in range(plan.S + 1):
        x = s / plan.S
        H = (1 - x) * Hi + x * Hp
        psi_ref = expm(-1j * H * plan.tau) @ psi_ref
    return psi_ref


def test_discrete_exact_matches_expm_product():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        d = rng.uniform(0, 4, size=2**n)
        plan = EvolutionPlan(T=7.3, S=6)
        psi_ref = expm_step_product(n, d, plan)
        report = evolve_discrete_exact(SearchHamiltonian(n, 1.0, d), plan)
        assert np.allclose(report.final_state.amplitudes, psi_ref, atol=1e-8)


def test_real_exact_steps_match_expm_product_at_n5():
    # The real eigh path against complex expm, on a seeded permutation instance.
    values, target = default_permutation_instance(5, np.random.default_rng(0))
    d = (values - target) ** 2
    plan = EvolutionPlan(T=10.45, S=10)
    report = evolve_discrete_exact(SearchHamiltonian(5, 1.0, d), plan)
    reference = np.abs(expm_step_product(5, d, plan)) ** 2
    assert np.max(np.abs(report.probabilities - reference)) <= 1e-12


def test_norm_preserved_along_steps(example_instance, reference_plan):
    H = example_instance
    psi = initial_ground_state(2)
    for s in range(reference_plan.S + 1):
        psi = expm_step(H, reference_plan, s) @ psi
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-9
        psi2 = trotter_step(H, reference_plan, s) @ psi
        assert abs(np.linalg.norm(psi2) - 1.0) < 1e-9


def test_trotter_step_exact_at_endpoints(example_instance, reference_plan):
    H = example_instance
    U0 = expm_step(H, reference_plan, 0)
    V0 = trotter_step(H, reference_plan, 0)
    assert np.allclose(U0, V0, atol=1e-10)
    US = expm_step(H, reference_plan, reference_plan.S)
    VS = trotter_step(H, reference_plan, reference_plan.S)
    assert np.allclose(US, VS, atol=1e-10)
    assert operator_fidelity(U0, V0) == pytest.approx(1.0, abs=1e-12)


def test_trotter_step_unitary_and_palindromic(example_instance, reference_plan):
    H = example_instance
    for s in range(reference_plan.S + 1):
        V = trotter_step(H, reference_plan, s)
        assert np.allclose(V.conj().T @ V, np.eye(4), atol=1e-10)
        # reversing the two half-steps leaves the product unchanged
        x = s / reference_plan.S
        half = expm(-1j * (1 - x) * reference_plan.tau / 2 * transverse_field(2, H.g))
        mid = expm(-1j * x * reference_plan.tau * np.diag(H.d))
        assert np.allclose(V, half @ mid @ half, atol=1e-12)


def test_trotter_step_matches_expm_product():
    # Reference: the three exponentials of the split, each by scipy expm.
    rng = np.random.default_rng(29)
    for n in range(1, 7):
        g = float(rng.uniform(0.5, 2.0))
        d = rng.uniform(0, 4, size=2**n)
        H = SearchHamiltonian(n, g, d)
        plan = EvolutionPlan(T=5.3, S=4)
        for s in range(plan.S + 1):
            x = s / plan.S
            half = expm(-1j * (1 - x) * plan.tau / 2 * transverse_field(n, g))
            reference = half @ expm(-1j * x * plan.tau * np.diag(d)) @ half
            V = trotter_step(H, plan, s)
            assert np.max(np.abs(V - reference)) <= 1e-12, (n, s)


def test_trotter_fidelities_match_reported(example_instance, reference_plan):
    H = example_instance
    audit = trotter_fidelity_audit(H, reference_plan)
    per_step = audit["per_step"]
    assert len(per_step) == 11
    assert all(f >= 0.996 for f in per_step)
    assert min(per_step) == pytest.approx(0.9961234546, abs=1e-9)
    assert audit["overall"] == pytest.approx(0.9914908794, abs=1e-9)
    assert abs(audit["overall"] - 0.991) <= 0.005


def test_trotter_fidelities_match_expm_at_n6():
    # perfbench wide_register's n = 6 step arguments, T = 10.45 n and S = 10 n,
    # on a seeded permutation table; both sides of every step by scipy expm.
    n = 6
    values, target = default_permutation_instance(n, np.random.default_rng(n))
    H = SearchHamiltonian(n, 1.0, (values - target) ** 2)
    plan = EvolutionPlan(T=62.7, S=60)
    audit = trotter_fidelity_audit(H, plan)
    exact_prod = split_prod = np.eye(2**n)
    per_step = []
    for s in range(plan.S + 1):
        x = s / plan.S
        U = expm_step(H, plan, s)
        half = expm(-1j * (1 - x) * plan.tau / 2 * transverse_field(n, H.g))
        V = half @ expm(-1j * x * plan.tau * np.diag(H.d)) @ half
        per_step.append(operator_fidelity(U, V))
        exact_prod, split_prod = U @ exact_prod, V @ split_prod
    assert len(audit["per_step"]) == plan.S + 1
    assert np.max(np.abs(np.subtract(audit["per_step"], per_step))) <= 1e-12
    assert abs(audit["overall"] - operator_fidelity(exact_prod, split_prod)) <= 1e-12


def test_trotter_evolution_top_outcome(example_instance, reference_plan):
    H = example_instance
    report = evolve_trotter(H, reference_plan)
    assert report.method == "trotter2"
    assert np.argmax(report.probabilities) == 3
    assert report.probabilities[3] >= 0.95
    assert report.fidelity_audit["overall"] == pytest.approx(0.9914908794, abs=1e-9)


def test_trotter_error_contracts_at_second_order(example_instance):
    """Operator error of the split product is O(tau^2) at fixed T.

    Halving tau (S: 10 -> 21) divides the product's operator-norm error by
    about 4; the trace fidelity deviation is quadratic in that error, so
    1 - F drops by about 16. Per-step at fixed s/S the local error is
    O(tau^3): norm ratio near 8, fidelity-deviation ratio near 64.
    """
    H = example_instance

    def products(S):
        plan = EvolutionPlan(T=10.45, S=S)
        Ue = np.eye(4, dtype=complex)
        Ut = np.eye(4, dtype=complex)
        for s in range(S + 1):
            Ue = expm_step(H, plan, s) @ Ue
            Ut = trotter_step(H, plan, s) @ Ut
        return Ue, Ut

    Ue10, Ut10 = products(10)
    Ue21, Ut21 = products(21)
    norm_ratio = np.linalg.norm(Ue10 - Ut10, 2) / np.linalg.norm(Ue21 - Ut21, 2)
    fid_ratio = (1 - operator_fidelity(Ue10, Ut10)) / (1 - operator_fidelity(Ue21, Ut21))
    assert 3.5 <= norm_ratio <= 4.5
    assert 14.0 <= fid_ratio <= 18.0

    def step_pair(tau):
        plan = EvolutionPlan(T=tau * 3, S=2)  # tau = T / (S+1); s=1 sits at x=1/2
        return expm_step(H, plan, 1), trotter_step(H, plan, 1)

    U1, V1 = step_pair(0.95)
    U2, V2 = step_pair(0.475)
    step_norm_ratio = np.linalg.norm(U1 - V1, 2) / np.linalg.norm(U2 - V2, 2)
    step_fid_ratio = (1 - operator_fidelity(U1, V1)) / (1 - operator_fidelity(U2, V2))
    assert 6.0 <= step_norm_ratio <= 9.0
    assert 40.0 <= step_fid_ratio <= 70.0


def test_trotter_converges_to_continuous(example_instance):
    H = example_instance
    fine = evolve_trotter(H, EvolutionPlan(T=10.45, S=1000))
    cont = evolve_continuous(H, EvolutionPlan(T=10.45, S=10))
    overlap = abs(np.vdot(fine.final_state.amplitudes, cont.final_state.amplitudes)) ** 2
    assert overlap >= 1 - 1e-3


def test_methods_agree_on_argmax(example_instance):
    H = example_instance
    plan = EvolutionPlan(T=12.0, S=12)
    reports = [
        evolve_continuous(H, plan),
        evolve_discrete_exact(H, plan),
        evolve_trotter(H, plan),
    ]
    assert len({int(np.argmax(r.probabilities)) for r in reports}) == 1


def test_ground_population_trace_shape(example_instance, reference_plan):
    H = example_instance
    report = evolve_discrete_exact(H, reference_plan)
    trace = report.ground_population_trace
    assert len(trace) == reference_plan.S + 2  # initial point plus one per step
    assert trace[0][1] == pytest.approx(1.0)
    assert all(0.0 <= p <= 1.0 + 1e-12 for _, p in trace)


def reference_share(psi: np.ndarray, H: SearchHamiltonian, s: float) -> float:
    """Population of psi in the ground level of H(s), from its own eigh:
    the squared norm of psi's projection on the ground eigenvectors."""
    w, V = np.linalg.eigh(interpolate(H, s))
    ground = V[:, w <= w[0] + evolve.DEGENERACY_TOL]
    return float(np.sum(np.abs(ground.T @ psi) ** 2))


@pytest.mark.parametrize("table", ["permutation", "duplicates"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_traces_are_the_ground_shares_of_each_point(n, table):
    # Seeded tables of 2^n rank codes: a permutation of 1..N, or codes 1..3
    # with the target's code stored twice, so H(1)'s ground level is degenerate.
    rng = np.random.default_rng(40 + n)
    if table == "permutation":
        values = rng.permutation(np.arange(1, 2**n + 1)).astype(float)
    else:
        values = np.concatenate([[1.0, 1.0], rng.integers(2, 4, size=2**n - 2)]).astype(float)
    H = SearchHamiltonian(n, 1.0, (values - 1.0) ** 2)
    ground_at_end = np.linalg.eigvalsh(interpolate(H, 1.0))
    assert np.sum(ground_at_end <= ground_at_end[0] + evolve.DEGENERACY_TOL) == (table == "duplicates") + 1
    plan = EvolutionPlan(T=10.45 * n, S=10 * n)
    steps = [s / plan.S for s in range(plan.S + 1)]

    # Exact steps: each trace point is the share before its step, and the
    # final state has the bits of the same steps replayed here.
    psi, expected = initial_ground_state(n), []
    for x in steps:
        expected.append(reference_share(psi, H, x))
        w, V = np.linalg.eigh(interpolate(H, x))
        psi = V @ (np.exp(-1j * plan.tau * w) * (V.T @ psi))
    report = evolve_discrete_exact(H, plan)
    assert np.array_equal(report.final_state.amplitudes, psi)
    assert [x for x, _ in report.ground_population_trace] == [0.0, *steps]
    got = [p for _, p in report.ground_population_trace]
    assert np.max(np.abs(np.subtract(got, [expected[0], *expected]))) <= 1e-15

    # Split steps: each trace point is the share after its step.
    psi = initial_ground_state(n)
    expected = [reference_share(psi, H, 0.0)]
    for s, x in enumerate(steps):
        psi = trotter_step(H, plan, s) @ psi
        expected.append(reference_share(psi, H, x))
    report = evolve_trotter(H, plan)
    assert np.array_equal(report.final_state.amplitudes, psi)
    assert [x for x, _ in report.ground_population_trace] == [0.0, *steps]
    got = [p for _, p in report.ground_population_trace]
    assert np.max(np.abs(np.subtract(got, expected))) <= 1e-15

    # CF4: the trace points k / 100 of the reported pass. A short passage,
    # T * max(d) = 20, converges in a few passes at every n.
    T = 20.0 / np.max(H.d)
    report = evolve_continuous(H, EvolutionPlan(T=T, S=10))
    states = [initial_ground_state(n), *(block[:, 0] for block in evolve._passage(H, [T], report.steps))]
    points = [k / (evolve.TRACE_POINTS - 1) for k in range(evolve.TRACE_POINTS)]
    assert [x for x, _ in report.ground_population_trace] == points
    got = [p for _, p in report.ground_population_trace]
    expected = [reference_share(psi, H, x) for psi, x in zip(states, points)]
    assert np.max(np.abs(np.subtract(got, expected))) <= 1e-15


@pytest.mark.parametrize("n", range(1, 9))
def test_discrete_walk_of_several_totals_is_one_walk_per_total(n):
    # One walk of s = k/S steps four total times at once, z = -i tau per
    # column, on the block's real view. Each column lies within 1e-13 of the
    # exact search at its T, a walk of one vector by complex products: the
    # bound batched CF4 columns meet. A walk
    # yields after every ``every``-th node and at no other: every = 3 gives
    # the bits of every third yield of every = 1.
    rng = np.random.default_rng(n)
    H = SearchHamiltonian(n, 1.0, rng.permutation(2**n).astype(float) ** 2)
    S = 10 * n
    plans = [EvolutionPlan(T=T, S=S) for T in (10.45 * n, 3.0, 62.7, 1e3)]
    z = -1j * np.array([plan.tau for plan in plans])
    steps = np.arange(S + 1) / S
    walk = list(evolve._walk(H, steps, z, 1))
    assert len(walk) == S + 1
    block = walk[-1][2]
    assert block.shape == (H.dim, len(plans))
    for b, plan in enumerate(plans):
        single = evolve_discrete_exact(H, plan).final_state.amplitudes
        assert np.allclose(block[:, b], single, rtol=0.0, atol=1e-13)
    thirds = list(evolve._walk(H, steps, z, 3))
    assert len(thirds) == (S + 1) // 3
    for (count, rotated, psi), expected in zip(thirds, walk[2::3]):
        assert count == expected[0]
        assert np.array_equal(rotated, expected[1]) and np.array_equal(psi, expected[2])


def test_operator_fidelity_properties():
    rng = np.random.default_rng(23)
    H = random_hermitian(rng, 4)
    U = expm(-1j * H)
    assert operator_fidelity(U, U) == pytest.approx(1.0)
    assert operator_fidelity(U, np.exp(1j * 0.83) * U) == pytest.approx(1.0)


def test_measure_probabilities_examples():
    psi0 = QuantumState(initial_ground_state(2))
    assert np.allclose(measure_probabilities(psi0), 0.25)
    e3 = QuantumState(np.array([0, 0, 0, 1], dtype=complex))
    assert np.allclose(measure_probabilities(e3), [0, 0, 0, 1])


def test_stepwise_final_states_stay_normalized_without_renormalization():
    # Seeded permutation instances at T = 10.45 n, S = 10 n. Neither stepwise
    # evolution divides its state by the norm; the largest drift measured
    # over n = 2..7, three seeds and S up to 200 is 2.2e-14.
    for n in range(2, 8):
        values, target = default_permutation_instance(n, np.random.default_rng(n))
        H = SearchHamiltonian(n, 1.0, (values - target) ** 2)
        plan = EvolutionPlan(T=10.45 * n, S=10 * n)
        for evolution in (evolve_discrete_exact, evolve_trotter):
            final = evolution(H, plan).final_state.amplitudes
            assert abs(np.linalg.norm(final) - 1.0) <= 1e-12, (n, evolution.__name__)
            if evolution is evolve_discrete_exact and n >= 6:
                # Steps applied in the eigenbasis match the step unitaries
                # formed from the same eigh. An independent reference cannot
                # hold 1e-12 here: a backward error of eps * |H| shifts each
                # step's phases by about 1e-12 at n = 6, and a scipy expm
                # product lies 2.1e-12 (n = 6) and 1.2e-11 (n = 7) away.
                psi = initial_ground_state(n)
                for s in range(plan.S + 1):
                    w, V = np.linalg.eigh(interpolate(H, s / plan.S))
                    psi = ((V * np.exp(-1j * plan.tau * w)) @ V.T) @ psi
                assert np.max(np.abs(final - psi)) <= 1e-12, n
