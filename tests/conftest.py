import numpy as np
import pytest

from adiasearch.database import RawEntry, encode_database
from adiasearch.evolve import EvolutionPlan
from adiasearch.operators import HermitianOperator, PauliString, search_hamiltonian

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
