import numpy as np
import pytest

from adiasearch.database import RawEntry, encode_database
from adiasearch.evolve import EvolutionPlan
from adiasearch.operators import search_hamiltonian

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
