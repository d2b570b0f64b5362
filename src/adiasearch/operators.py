"""Search instance construction and the Pauli expansion of its diagonal.

Qubit convention: qubit 0 is the least significant bit of the basis index,
so a single-qubit operator A on qubit k of an n-qubit register is
I x ... x A x ... x I with A in the (n-1-k)-th Kronecker slot. Pauli string
labels read most significant qubit first, like ket labels |q1 q0>.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .database import EncodedDatabase
from .errors import InputError, NumericError

PAULI_DROP_TOL = 1e-12
# Levels, or diagonal entries, within this of the lowest belong to the ground level.
DEGENERACY_TOL = 1e-9


@cache
def _flip_index(n: int) -> np.ndarray:
    """Flat indices i * 2^n + (i ^ 2^k) of the entries of sum_k X_k, where X_k
    links the basis states differing in bit k alone. Made once per n, read-only."""
    i = np.arange(2**n)[:, None]
    index = (i * 2**n + (i ^ 2 ** np.arange(n))).ravel()
    index.flags.writeable = False
    return index


def _x_rotation(n: int, angle: float) -> np.ndarray:
    """exp(-i angle sum_k X_k), the tensor product of n copies of the
    single-qubit x rotation R = [[cos angle, -i sin angle], [-i sin angle, cos angle]].

    Each of the n - 1 Kronecker products R x U is one broadcast product,
    entry (a m + i, b m + j) = R[a, b] U[i, j] for U of size m. The copies
    are equal, so the factor order is free; with U's axes innermost the
    product runs over long contiguous rows, twice as fast at n = 6 as U x R.
    At n = 1 the result is R itself.
    """
    c, s = np.cos(angle), -1j * np.sin(angle)
    R = np.array([[c, s], [s, c]])
    U = R
    for _ in range(n - 1):
        U = (R[:, None, :, None] * U[None, :, None, :]).reshape(2 * len(U), -1)
    return U


@dataclass(frozen=True, eq=False)
class SearchHamiltonian:
    """Search instance H(s) = (1-s) * g * sum_k X_k + s * diag(d).

    Stored as what it is: the qubit count n, the transverse-field strength g
    and the problem diagonal d, through which alone the database enters.
    The instance is validated once, here, and d is kept read-only;
    ``interpolate`` builds each dense H(s), and ``solutions`` names the
    indices of H(1)'s ground level.
    """

    n_qubits: int
    g: float
    d: np.ndarray

    def __post_init__(self):
        n = self.n_qubits
        if n < 1:
            raise InputError(f"need at least one qubit, got {n}")
        strength = float(self.g)
        if not strength > 0:
            raise InputError(f"coupling strength must be positive, got {strength}")
        if not np.isfinite(strength):
            raise InputError(f"coupling strength must be finite, got {strength}")
        if not np.isfinite(n * strength):
            raise NumericError(f"ground level -n*g of the transverse field overflows at g = {strength}")
        if np.iscomplexobj(self.d):
            raise InputError("problem diagonal must be real")
        d = np.array(self.d, dtype=float)
        if d.shape != (2**n,):
            raise InputError(f"problem diagonal has shape {d.shape}, expected ({2**n},)")
        if not np.all(np.isfinite(d)):
            raise InputError("problem diagonal must be finite")
        d.flags.writeable = False
        object.__setattr__(self, "g", strength)
        object.__setattr__(self, "d", d)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @property
    def solutions(self) -> np.ndarray:
        """Indices of H(1)'s ground level, ascending: every i with
        d_i <= min d + DEGENERACY_TOL, one index per stored solution."""
        return np.flatnonzero(self.d <= self.d.min() + DEGENERACY_TOL)


def search_hamiltonian(db: EncodedDatabase, target: float, g: float = 1.0) -> SearchHamiltonian:
    """Search instance for one target: d_i = (value_i - target)^2.

    Positive semidefinite; its ground energy is 0 exactly when the target
    matches a stored value, and its solutions are the indices of the
    smallest (value_i - target)^2, one per row that stores the nearest value.
    """
    d = (np.array(db.values, dtype=float) - target) ** 2
    if not np.all(np.isfinite(d)):
        raise NumericError(f"squared distance (value - target)^2 overflows at target code {target}")
    return SearchHamiltonian(n_qubits=db.n_qubits, g=g, d=d)


def interpolate(H: SearchHamiltonian, s: float | np.ndarray) -> np.ndarray:
    """Dense H(s) = (1-s) * g * sum_k X_k + s * diag(d), for s in [0, 1].

    Real (float64): zeros, then (1-s) * g at each entry (i, i ^ 2^k) that
    qubit k's X links, then s * d on the diagonal. A 1-D array of s gives
    the stack of the H(s_k), each with the bits of its scalar form.
    """
    s = np.asarray(s, dtype=float)
    outside = s[~((0.0 <= s) & (s <= 1.0))]
    if outside.size:
        raise InputError(f"interpolation parameter {outside[0]} outside [0, 1]")
    dim = H.dim
    x = s.reshape(-1, 1)
    Hs = np.zeros((x.shape[0], dim * dim))
    Hs[:, _flip_index(H.n_qubits)] = (1.0 - x) * H.g
    Hs[:, :: dim + 1] = x * H.d
    return Hs.reshape(*s.shape, dim, dim)


def pauli_decompose(H: SearchHamiltonian) -> dict[str, float]:
    """Expand the problem Hamiltonian diag(d) over the Pauli strings, as {label: coefficient}.

    A diagonal operator has only I/Z strings: the coefficient of Z^z is
    sum_i (-1)^popcount(i & z) d_i / 2^n, all found by one Walsh-Hadamard
    transform of d in O(n 2^n). A label reads the most significant qubit
    first, so "IZ" is Z on qubit 0. Terms with |c| < 1e-12 are omitted, and
    labels are ordered I < Z for reproducibility. Raises NumericError when
    the transform's sums overflow, even though every d_i is finite.
    """
    n = H.n_qubits
    c = H.d.copy()
    for k in range(n):
        pairs = c.reshape(-1, 2, 2**k)
        low, high = pairs[:, 0], pairs[:, 1]
        difference = low - high
        low += high
        high[...] = difference
    c /= H.dim
    if not np.all(np.isfinite(c)):
        raise NumericError("Pauli expansion of the problem diagonal overflows")
    return {
        f"{z:0{n}b}".replace("0", "I").replace("1", "Z"): float(c[z])
        for z in np.flatnonzero(np.abs(c) >= PAULI_DROP_TOL).tolist()
    }


def operator_to_json(H: SearchHamiltonian) -> dict:
    """Serializable form of the problem Hamiltonian: qubit count plus its Pauli expansion."""
    return {
        "n_qubits": H.n_qubits,
        "pauli_terms": [
            {"coeff": coefficient, "axes": label}
            for label, coefficient in pauli_decompose(H).items()
        ],
    }
