"""Hamiltonian construction and Pauli-string algebra.

Qubit convention: qubit 0 is the least significant bit of the basis index,
so a single-qubit operator A on qubit k of an n-qubit register is
I x ... x A x ... x I with A in the (n-1-k)-th Kronecker slot. Pauli string
labels read most significant qubit first, like ket labels |q1 q0>.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .database import EncodedDatabase
from .errors import (
    DimensionMismatch,
    InputError,
    LengthMismatch,
    NonFiniteResult,
    SOutOfRange,
    tolerance_text,
)

HERMITICITY_TOL = 1e-12
PAULI_DROP_TOL = 1e-12
# Largest imaginary part a Pauli coefficient of a Hermitian matrix may carry.
PAULI_NON_REAL_TOL = 1e-9

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class HermitianOperator:
    """Dense complex Hermitian matrix on an n-qubit register."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = 2**self.n_qubits
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (dim, dim):
            raise DimensionMismatch(
                f"matrix shape {m.shape} does not match {self.n_qubits} qubits"
            )
        if not np.allclose(m, m.conj().T, rtol=0.0, atol=HERMITICITY_TOL):
            raise InputError(f"matrix is not Hermitian within {tolerance_text(HERMITICITY_TOL)}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


@dataclass(frozen=True)
class PauliString:
    """One weighted tensor product of Pauli operators.

    ``axes[k]`` is the axis ('I', 'X', 'Y', 'Z') acting on qubit k, so the
    last list position is the most significant qubit. ``label`` renders the
    conventional string with the most significant qubit leftmost.
    """

    coefficient: float
    axes: tuple[str, ...]

    def __post_init__(self):
        if not np.isfinite(self.coefficient):
            raise InputError("Pauli coefficient must be finite")
        bad = [a for a in self.axes if a not in PAULI_MATRICES]
        if bad:
            raise InputError(f"unknown Pauli axes {bad}")
        object.__setattr__(self, "axes", tuple(self.axes))

    @property
    def label(self) -> str:
        return "".join(reversed(self.axes))

    @classmethod
    def from_label(cls, coefficient: float, label: str) -> "PauliString":
        return cls(coefficient=coefficient, axes=tuple(reversed(label)))

    def matrix(self) -> np.ndarray:
        mats = [PAULI_MATRICES[a] for a in reversed(self.axes)]
        # Scaling the first 2x2 factor costs less than scaling the product.
        return reduce(np.kron, mats[1:], self.coefficient * mats[0])


def _flip_counts(n: int) -> np.ndarray:
    """w[i, j], the number of bits in which basis indices i and j differ."""
    i = np.arange(2**n)
    flips = i[:, None] ^ i
    return sum((flips >> k) & 1 for k in range(n))


def _x_rotation(n: int, angle: float) -> np.ndarray:
    """exp(-i angle sum_k X_k), the tensor product of n single-qubit x rotations.

    Entry (i, j) is cos(angle)^(n-w) (-i sin(angle))^w with w = _flip_counts(n)[i, j].
    """
    k = np.arange(n + 1)
    return (np.cos(angle) ** (n - k) * (-1j * np.sin(angle)) ** k)[_flip_counts(n)]


def initial_hamiltonian(n: int, g: float) -> HermitianOperator:
    """Transverse-field Hamiltonian g * sum_k X_k with known ground state."""
    if n < 1:
        raise InputError(f"need at least one qubit, got {n}")
    strength = float(g)
    if not strength > 0:
        raise InputError(f"coupling strength must be positive, got {strength}")
    if not np.isfinite(strength):
        raise InputError(f"coupling strength must be finite, got {strength}")
    if not np.isfinite(n * strength):
        raise NonFiniteResult(
            f"ground level -n*g of the transverse field overflows at g = {strength}"
        )
    # X_k links the basis states that differ in bit k alone.
    H = (_flip_counts(n) == 1).astype(complex)
    return HermitianOperator(n_qubits=n, matrix=strength * H)


@dataclass(frozen=True, eq=False)
class SearchHamiltonian:
    """Search instance H(s) = (1-s) * g * sum_k X_k + s * diag(d).

    The database enters only through the diagonal d of the problem
    Hamiltonian. The instance is validated once, here; the dense transverse
    field ``Hi`` is built once and, like d, kept read-only.
    """

    n_qubits: int
    g: float
    d: np.ndarray
    Hi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        Hi = initial_hamiltonian(self.n_qubits, self.g).matrix
        if np.iscomplexobj(self.d):
            raise InputError("problem diagonal must be real")
        d = np.array(self.d, dtype=float)
        if d.shape != (Hi.shape[0],):
            raise LengthMismatch(
                f"problem diagonal has shape {d.shape}, expected ({Hi.shape[0]},)"
            )
        if not np.all(np.isfinite(d)):
            raise InputError("problem diagonal must be finite")
        for array in (d, Hi):
            array.flags.writeable = False
        object.__setattr__(self, "g", float(self.g))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "Hi", Hi)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def at(self, s: float) -> np.ndarray:
        """Dense H(s) = (1-s)*Hi + s*diag(d), unchecked: s is taken as given."""
        Hs = (1.0 - s) * self.Hi
        Hs.flat[:: len(self.d) + 1] = s * self.d  # Hi's diagonal is zero
        return Hs

    def problem_operator(self) -> HermitianOperator:
        """Hp = diag(d) as a general operator, for Pauli expansion and serialization."""
        return HermitianOperator(n_qubits=self.n_qubits, matrix=np.diag(self.d))


def search_hamiltonian(db: EncodedDatabase, target: float, g: float = 1.0) -> SearchHamiltonian:
    """Search instance for one target: d_i = (value_i - target)^2.

    Positive semidefinite; its ground energy is 0 exactly when the target
    matches a stored value, and the ground index is the argmin of
    (value_i - target)^2.
    """
    d = (np.array(db.values, dtype=float) - target) ** 2
    return SearchHamiltonian(n_qubits=db.n_qubits, g=g, d=d)


def interpolate(H: SearchHamiltonian, s: float) -> np.ndarray:
    """Dense H(s) = (1-s)*Hi + s*Hp, for s in [0, 1]."""
    if not 0.0 <= s <= 1.0:
        raise SOutOfRange(f"interpolation parameter {s} outside [0, 1]")
    return H.at(s)


def pauli_decompose(H: HermitianOperator) -> list[PauliString]:
    """Expand H over the 4^n Pauli strings, dropping negligible terms.

    Coefficients are Tr(P H) / 2^n, all found by one Walsh-Hadamard
    transform in O(n 4^n): row x of V holds the x-th off-diagonal,
    V[x, i] = H[i^x, i], and its transform over i, at Z-mask z, is
    Tr(Z^z X^x H). Since Y = -i ZX on one qubit, the string with X where
    only x has the bit, Y where both do and Z where only z does is
    (-i)^popcount(x & z) Z^z X^x. A diagonal H has only the x = 0 row.
    Hermiticity makes the coefficients real. Terms with |c| < 1e-12 are
    omitted. Output is ordered by label (I < X < Y < Z, most significant
    qubit first) for reproducibility.
    """
    n = H.n_qubits
    dim = H.dim
    i = np.arange(dim)
    V = H.matrix[i[:, None] ^ i, i]
    # spread puts bit k of a mask at bit 2k, so that qubit k's label digit
    # x_k XOR 3 z_k (I, X, Y, Z = 0..3) sits at 4^k.
    spread = np.zeros(dim, dtype=int)
    for k in range(n):
        bit = (i >> k) & 1
        pairs = V.reshape(dim, -1, 2, 2**k)
        low, high = pairs[:, :, 0], pairs[:, :, 1]
        difference = low - high
        low += high
        high[...] = difference
        high[bit == 1] *= -1j  # x and z share bit k: a factor -i
        spread |= bit << (2 * k)
    V /= dim
    by_label = np.empty(4**n, dtype=complex)
    by_label[(spread[:, None] ^ 3 * spread).ravel()] = V.ravel()

    def axes(label: int) -> tuple[str, ...]:
        return tuple("IXYZ"[(label >> (2 * k)) & 3] for k in range(n))

    non_real = np.flatnonzero(np.abs(by_label.imag) > PAULI_NON_REAL_TOL)
    if non_real.size:
        label = int(non_real[0])
        raise InputError(
            f"non-real Pauli coefficient {complex(by_label[label])} for {axes(label)}"
        )
    kept = np.flatnonzero(np.abs(by_label.real) >= PAULI_DROP_TOL)
    return [
        PauliString(coefficient=float(by_label[label].real), axes=axes(int(label)))
        for label in kept
    ]


def pauli_compose(terms: list[PauliString], n: int) -> HermitianOperator:
    """Rebuild the dense matrix sum_P c_P * P from a term list."""
    dim = 2**n
    M = np.zeros((dim, dim), dtype=complex)
    for term in terms:
        if len(term.axes) != n:
            raise LengthMismatch(
                f"term {term.label!r} has {len(term.axes)} axes, expected {n}"
            )
        M += term.matrix()
    return HermitianOperator(n_qubits=n, matrix=M)


def operator_to_json(H: HermitianOperator) -> dict:
    """Serializable form: qubit count plus the Pauli expansion."""
    return {
        "n_qubits": H.n_qubits,
        "pauli_terms": [
            {"coeff": t.coefficient, "axes": t.label} for t in pauli_decompose(H)
        ],
    }


def operator_from_json(data: dict) -> HermitianOperator:
    n = int(data["n_qubits"])
    terms = [
        PauliString.from_label(float(t["coeff"]), t["axes"])
        for t in data["pauli_terms"]
    ]
    return pauli_compose(terms, n)
