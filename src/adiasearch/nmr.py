"""Compilation of two-qubit evolution steps to NMR pulse sequences.

Each second-order step splits into two simultaneous x pulses around a
diagonal block; the diagonal block is realized by per-spin z rotations
(the single-Z terms) and free evolution under the scalar coupling (the ZZ
term). The identity term contributes only a global phase, which is dropped
from the pulses but tracked on the sequence so operator comparisons can be
made phase-exact. ``compile_full`` is the one producer of pulse programs,
and none is read back, so their ops are not checked again.

Rotation convention: rot_x(theta) = exp(-i (theta/2) sigma_x) per addressed
spin, and likewise for rot_z. Spin k is qubit k. Both spins are on
resonance, so free evolution runs under the coupling 2 pi J Iz Iz alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WrongQubitCount
from .evolve import EvolutionPlan
from .operators import SearchHamiltonian, _x_rotation, pauli_decompose

# Scalar coupling J (Hz) of the two-spin sample; every free evolution runs under it.
J_HZ = 214.5
ROT_KINDS = ("rot_x", "rot_z")
# _Z[k] is the diagonal of Z on spin k: +1 where bit k of the basis index is 0.
_Z = 1.0 - 2.0 * ((np.arange(4) >> np.arange(2)[:, None]) & 1)


@dataclass(frozen=True)
class PulseOp:
    """One pulse primitive: an x or z rotation by an angle, or free J-coupling evolution."""

    kind: str
    spins: tuple[int, ...]
    angle: float | None = None
    duration: float | None = None


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulse program for one evolution step.

    ``dropped_identity_phase`` is the angle phi of the omitted global factor
    exp(-i phi): multiplying the simulated unitary by that factor recovers
    the split-step unitary exactly.
    """

    ops: tuple[PulseOp, ...]
    step_index: int
    dropped_identity_phase: float = 0.0


def compile_full(H: SearchHamiltonian, plan: EvolutionPlan) -> list[PulseSequence]:
    """Pulse sequences for every step s = 0..S of the search instance H, in application order.

    Each step is compiled into x pulses, z rotations, and free evolution.
    The two x pulses of angle theta = (1 - s/S) * tau * g sandwich the
    diagonal block; each z rotation angle is 2 * (s/S) * tau * c_Z; the free
    evolution duration realizes exp(-i (s/S) tau c_ZZ ZZ) under the coupling
    2 pi J Iz Iz, lifted by full periods 4/J when the required angle is
    negative. Zero-angle and zero-duration ops are omitted.
    """
    if H.n_qubits != 2:
        raise WrongQubitCount(
            f"pulse compilation supports 2-qubit databases, got n={H.n_qubits}"
        )
    c = pauli_decompose(H)
    # label reads qubit 1 first: "IZ" is Z on qubit 0, "ZI" is Z on qubit 1.
    c_identity, c_z0, c_z1, c_zz = (c.get(label, 0.0) for label in ("II", "IZ", "ZI", "ZZ"))
    tau = plan.tau
    sequences = []
    for s in range(plan.S + 1):
        x = s / plan.S
        theta = (1.0 - x) * tau * H.g
        x_pulse = [PulseOp(kind="rot_x", spins=(0, 1), angle=theta)] if theta != 0.0 else []
        ops = list(x_pulse)
        for spin, c_z in ((0, c_z0), (1, c_z1)):
            phi = 2.0 * x * tau * c_z
            if phi != 0.0:
                ops.append(PulseOp(kind="rot_z", spins=(spin,), angle=phi))
        zz_angle = x * tau * c_zz
        duration = (2.0 * zz_angle / (math.pi * J_HZ)) % (4.0 / J_HZ)
        if duration > 0.0:
            ops.append(PulseOp(kind="free_evolve", spins=(0, 1), duration=duration))
        ops += x_pulse
        sequences.append(
            PulseSequence(ops=tuple(ops), step_index=s, dropped_identity_phase=x * tau * c_identity)
        )
    return sequences


def _op_unitary(op: PulseOp) -> np.ndarray:
    if op.kind == "rot_x":  # compile_full addresses both spins with every x pulse
        return _x_rotation(2, op.angle / 2.0)
    if op.kind == "rot_z":
        z = sum(_Z[spin] for spin in op.spins)
        return np.diag(np.exp(-1j * z * (op.angle / 2.0)))
    # free evolution under 2 pi J Iz0 Iz1, Iz = Z/2
    energies = (math.pi * J_HZ / 2.0) * (_Z[0] * _Z[1])
    return np.diag(np.exp(-1j * energies * op.duration))


def simulate_sequence(seq: PulseSequence) -> np.ndarray:
    """Exact 4x4 unitary of the pulse program; empty sequences give identity."""
    U = np.eye(4, dtype=complex)
    for op in seq.ops:
        U = _op_unitary(op) @ U
    return U


def sequence_to_json(seq: PulseSequence) -> dict:
    """JSON-lines record: step index, pulse ops, and the tracked global phase.

    Angles are rounded to 12 significant digits; durations stay in seconds.
    """
    ops = []
    for op in seq.ops:
        entry: dict = {"kind": op.kind, "spins": list(op.spins)}
        if op.kind in ROT_KINDS:
            entry["angle_rad"] = float(f"{op.angle:.12g}")
        else:
            entry["duration_s"] = op.duration
        ops.append(entry)
    return {
        "step": seq.step_index,
        "ops": ops,
        "dropped_identity_phase_rad": seq.dropped_identity_phase,
    }
