import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from adiasearch.errors import WrongQubitCount
from adiasearch.evolve import (
    EvolutionPlan,
    initial_ground_state,
    operator_fidelity,
    trotter_step,
)
from adiasearch.nmr import (
    PulseOp,
    J_HZ,
    PulseSequence,
    compile_full,
    sequence_to_json,
    simulate_sequence,
)
from adiasearch.operators import SearchHamiltonian, _x_rotation

# Hp = diag(4, 1, 1, 0) = 1.5 II + 1.0 IZ + 1.0 ZI + 0.5 ZZ
EXAMPLE = SearchHamiltonian(2, 1.0, [4.0, 1.0, 1.0, 0.0])
ZZ_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])
PAULI = {"X": np.array([[0.0, 1.0], [1.0, 0.0]]), "Z": np.diag([1.0, -1.0])}


@pytest.fixture
def plan():
    return EvolutionPlan(T=10.45, S=10)


def test_compile_step_zero(plan):
    seq = compile_full(EXAMPLE, plan)[0]
    kinds = [op.kind for op in seq.ops]
    assert kinds == ["rot_x", "rot_x"]
    assert seq.ops[0].angle == pytest.approx(0.95)
    assert seq.ops[0].spins == (0, 1)
    assert seq.dropped_identity_phase == 0.0
    # the x pulse angle takes g from the instance
    strong = SearchHamiltonian(2, 2.0, EXAMPLE.d)
    assert compile_full(strong, plan)[0].ops[0].angle == pytest.approx(1.9)


def test_compile_step_final(plan):
    seq = compile_full(EXAMPLE, plan)[10]
    kinds = [op.kind for op in seq.ops]
    assert kinds == ["rot_z", "rot_z", "free_evolve"]
    free = seq.ops[-1]
    assert free.duration == pytest.approx(0.95 / (math.pi * J_HZ), abs=1e-15)
    assert free.duration == pytest.approx(1.4098e-3, abs=1e-7)
    assert seq.dropped_identity_phase == pytest.approx(0.95 * 1.5)


def test_compile_step_middle(plan):
    seq = compile_full(EXAMPLE, plan)[5]
    assert seq.ops[0].kind == "rot_x"
    assert seq.ops[0].angle == pytest.approx(0.475)
    z_ops = [op for op in seq.ops if op.kind == "rot_z"]
    assert [op.spins for op in z_ops] == [(0,), (1,)]
    for op in z_ops:
        assert op.angle == pytest.approx(2 * 0.5 * 0.95)
    free = [op for op in seq.ops if op.kind == "free_evolve"][0]
    assert free.duration == pytest.approx(0.5 * 0.95 / (math.pi * J_HZ))


def test_theta_and_tau_linear(plan):
    for s, seq in enumerate(compile_full(EXAMPLE, plan)):
        x_ops = [op for op in seq.ops if op.kind == "rot_x"]
        frees = [op for op in seq.ops if op.kind == "free_evolve"]
        if s < 10:
            assert x_ops[0].angle == pytest.approx(0.95 * (1 - s / 10))
        else:
            assert not x_ops
        if s > 0:
            assert frees[0].duration == pytest.approx(0.95 * (s / 10) / (math.pi * J_HZ))
        else:
            assert not frees


def test_compile_rejects_wrong_qubit_count(plan):
    with pytest.raises(WrongQubitCount):
        compile_full(SearchHamiltonian(1, 1.0, [1.0, -1.0]), plan)[1]


def test_z_rotations_vanish_iff_z_terms_absent(plan):
    zz_only = SearchHamiltonian(2, 1.0, 0.5 * ZZ_SIGNS)
    for seq in compile_full(zz_only, plan)[1:]:
        assert not [op for op in seq.ops if op.kind == "rot_z"]


def test_simulate_empty_sequence():
    seq = PulseSequence(ops=(), step_index=0)
    assert np.allclose(simulate_sequence(seq), np.eye(4))


# The two spins' x pulse, the one x pulse compile_full emits, is tested on its own below.
@pytest.mark.parametrize("kind,axis", [("rot_z", "Z")])
@pytest.mark.parametrize("spins", [(0,), (1,), (0, 1)])
def test_rotation_unitaries_match_expm(kind, axis, spins):
    angle = 1.37
    op = PulseOp(kind=kind, spins=spins, angle=angle)
    # Spin 1 is the most significant qubit, the left Kronecker factor.
    generator = sum(
        np.kron(*(PAULI[axis] if k == spin else np.eye(2) for k in (1, 0))) for spin in spins
    )
    U = simulate_sequence(PulseSequence(ops=(op,), step_index=0))
    assert np.allclose(U, expm(-1j * (angle / 2) * generator), rtol=0.0, atol=1e-12)


def test_x_pulse_is_the_two_spin_rotation():
    # exp(-i (theta/2) (X1 + X0)), the tensor product of the single-spin rotation with itself.
    generator = np.kron(PAULI["X"], np.eye(2)) + np.kron(np.eye(2), PAULI["X"])
    for angle in [0.0, 1.37, -2.5, *np.random.default_rng(11).uniform(-20.0, 20.0, 40)]:
        op = PulseOp(kind="rot_x", spins=(0, 1), angle=angle)
        U = simulate_sequence(PulseSequence(ops=(op,), step_index=0))
        R = _x_rotation(1, angle / 2)
        assert np.array_equal(U, _x_rotation(2, angle / 2))
        assert np.array_equal(U, np.kron(R, R))
        assert np.allclose(U, expm(-1j * (angle / 2) * generator), rtol=0.0, atol=1e-12)


def compiled_instances():
    """The README instance, the phone book's other targets (one absent, one
    stored twice) and seeded random diagonals, each with its (T, S, g)."""
    codes = np.array([4.0, 3.0, 1.0, 2.0])  # the phone book's value codes
    yield SearchHamiltonian(2, 1.0, (codes - 2.0) ** 2), EvolutionPlan(T=10.45, S=10)
    for target in (1.0, 3.0, 4.0, 2.5):
        yield SearchHamiltonian(2, 1.0, (codes - target) ** 2), EvolutionPlan(T=10.45, S=10)
    yield SearchHamiltonian(2, 1.0, (np.array([5.0, 1.0, 9.0, 5.0]) - 5.0) ** 2), EvolutionPlan(T=10.45, S=50)
    rng = np.random.default_rng(29)
    for _ in range(20):
        d = rng.uniform(-50.0, 50.0, 4)
        plan = EvolutionPlan(T=float(rng.uniform(0.1, 100.0)), S=int(rng.integers(1, 201)))
        yield SearchHamiltonian(2, float(rng.uniform(0.1, 10.0)), d), plan


def test_compiled_ops_take_three_shapes():
    # An x pulse on both spins, a z rotation on one spin, or free evolution of both.
    shapes = {("rot_x", (0, 1), True), ("rot_z", (0,), True), ("rot_z", (1,), True), ("free_evolve", (0, 1), False)}
    for H, plan in compiled_instances():
        for seq in compile_full(H, plan):
            for op in seq.ops:
                assert (op.kind, op.spins, op.angle is not None) in shapes
                assert (op.duration is None) == (op.kind != "free_evolve")


def test_free_evolution_half_J_period():
    # 2 pi J Iz Iz for t = 1/(2J) accumulates exp(-i (pi/4) ZZ).
    seq = PulseSequence(
        ops=(PulseOp(kind="free_evolve", spins=(0, 1), duration=1.0 / (2 * J_HZ)),),
        step_index=0,
    )
    U = simulate_sequence(seq)
    phases = np.exp(-1j * np.pi / 4 * np.array([1.0, -1.0, -1.0, 1.0]))
    assert np.allclose(U, np.diag(phases), atol=1e-12)


def test_each_compiled_step_matches_split_unitary(example_instance, plan):
    H = example_instance
    for s, seq in enumerate(compile_full(H, plan)):
        U_seq = simulate_sequence(seq)
        U_ref = trotter_step(H, plan, s)
        assert operator_fidelity(U_seq, U_ref) >= 1 - 1e-6
        assert np.allclose(U_seq.conj().T @ U_seq, np.eye(4), atol=1e-10)
        # reinstating the dropped identity phase makes the match elementwise
        U_phased = U_seq * np.exp(-1j * seq.dropped_identity_phase)
        assert np.allclose(U_phased, U_ref, atol=1e-10)


def test_compile_full_counts(plan):
    assert len(compile_full(EXAMPLE, plan)) == 11
    assert len(compile_full(EXAMPLE, EvolutionPlan(T=2.0, S=1))) == 2


def test_full_compiled_run_finds_solution(example_instance, plan):
    sequences = compile_full(example_instance, plan)
    psi = initial_ground_state(2)
    for seq in sequences:
        psi = simulate_sequence(seq) @ psi
    probs = np.abs(psi) ** 2
    assert np.argmax(probs) == 3
    assert probs[3] >= 0.95
    assert probs[3] == pytest.approx(0.972241, abs=1e-6)


def test_negative_zz_coefficient_lifted_by_period(plan):
    H = SearchHamiltonian(2, 1.0, -0.5 * ZZ_SIGNS)
    seq = compile_full(H, plan)[5]
    free = [op for op in seq.ops if op.kind == "free_evolve"][0]
    assert 0.0 < free.duration < 4.0 / J_HZ
    U_ref = trotter_step(H, plan, 5)
    assert operator_fidelity(simulate_sequence(seq), U_ref) == pytest.approx(1.0, abs=1e-12)


def test_sequence_json_format(plan):
    seq = compile_full(EXAMPLE, plan)[3]
    record = sequence_to_json(seq)
    assert record["step"] == 3
    assert json.dumps(record)  # serializable
    for op, entry in zip(seq.ops, record["ops"]):
        assert entry["kind"] == op.kind
        assert entry["spins"] == list(op.spins)
        if op.kind == "free_evolve":
            assert entry["duration_s"] == op.duration
        else:
            # angles carry 12 significant digits
            assert entry["angle_rad"] == pytest.approx(op.angle, rel=1e-11)
