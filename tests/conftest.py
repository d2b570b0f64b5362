import numpy as np
import pytest

from adiasearch.database import RawEntry, encode_database
from adiasearch.evolve import EvolutionPlan
from adiasearch.errors import SweepTimeout
from adiasearch.operators import HermitianOperator, PauliString, search_hamiltonian
from adiasearch.spectrum import _round_2_significant, _success_probabilities

PHONE_BOOK = [
    ("Alex", "3601004"),
    ("Bob", "3601003"),
    ("Cherry", "3601001"),
    ("David", "3601002"),
]


@pytest.fixture
def example_rows():
    return [RawEntry(key=k, value_label=v) for k, v in PHONE_BOOK]


@pytest.fixture
def example_db(example_rows):
    return encode_database(example_rows)


@pytest.fixture
def example_instance(example_db):
    """Search Hamiltonian of the worked 2-qubit search for target code 2."""
    return search_hamiltonian(example_db, 2.0, g=1.0)


@pytest.fixture
def reference_plan():
    return EvolutionPlan(T=10.45, S=10)


@pytest.fixture
def phonebook_csv(tmp_path):
    path = tmp_path / "phonebook.csv"
    lines = ["key,value"] + [f"{k},{v}" for k, v in PHONE_BOOK]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (M + M.conj().T) / 2.0


def reference_pauli_decompose(H: HermitianOperator) -> list[PauliString]:
    """The dense loop over all 4^n strings: Tr(P H) / 2^n for each unit string P.

    Reference for ``pauli_decompose``: same drop rule (|c| >= 1e-12), same
    order (labels with I < X < Y < Z, most significant qubit first).
    """
    terms = []
    for combo in np.ndindex(*(4,) * H.n_qubits):
        axes = tuple("IXYZ"[c] for c in reversed(combo))
        P = PauliString(coefficient=1.0, axes=axes).matrix()
        coeff = complex(np.trace(P @ H.matrix)) / H.dim
        assert abs(coeff.imag) <= 1e-9
        if abs(coeff.real) >= 1e-12:
            terms.append(PauliString(coefficient=coeff.real, axes=axes))
    return terms


def reference_time_to_success(
    H, solution_index: int, threshold: float = 0.9, probes: dict | None = None
) -> float:
    """The sequential search, one scalar-T RK4 probe per step.

    Reference for ``time_to_success``: double from T = 1 to the first
    crossing, bisect until both ends round to the same 2-significant-figure
    value, then verify the rounded value and, failing that, the next one up.
    ``probes``, when given, collects each probed T and its probability.
    """
    def success(T: float) -> bool:
        p = _success_probabilities(H, solution_index, T)
        if probes is not None:
            probes[T] = p
        return p >= threshold

    T = 1.0
    if success(T):
        return 1.0
    while True:
        T *= 2.0
        if success(T):
            break
        if T > 2**20:
            raise SweepTimeout(f"no success by T={T}; instance looks stuck")
    lo, hi = T / 2.0, T
    while _round_2_significant(lo) != _round_2_significant(hi):
        mid = 0.5 * (lo + hi)
        if success(mid):
            hi = mid
        else:
            lo = mid
    candidate = _round_2_significant(hi)
    if success(candidate):
        return candidate
    ulp = 10.0 ** (np.floor(np.log10(abs(candidate))) - 1)
    stepped = float(candidate + ulp)
    if success(stepped):
        return stepped
    return hi
