import functools
import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from adiasearch import evolve, spectrum
from adiasearch.database import RawEntry, encode_database
from adiasearch.evolve import EvolutionPlan, initial_ground_state
from adiasearch.errors import SweepTimeout
from adiasearch.operators import interpolate, search_hamiltonian
from adiasearch.spectrum import SUCCESS_THRESHOLD, _Probe, _probe_pass

PHONE_BOOK = [
    ("Alex", "3601004"),
    ("Bob", "3601003"),
    ("Cherry", "3601001"),
    ("David", "3601002"),
]
# An n = 4 table whose target 9 is stored twice, at basis indices 8 and 9.
TWO_SOLUTION_LABELS = [*range(1, 10), 9, *range(10, 16)]


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


def drop_solver_pool() -> None:
    """Shut down the node-solve pool, if one was made, so the next use makes a new one."""
    if evolve._solver_pool.cache_info().currsize:
        evolve._solver_pool().shutdown()
    evolve._solver_pool.cache_clear()


@pytest.fixture
def solver_workers(monkeypatch):
    """Call with a worker count to give the node solves a fresh pool of that
    many workers; the pool is shut down after the test."""

    def use(count: int) -> None:
        monkeypatch.setattr(evolve, "_workers", lambda: count)
        drop_solver_pool()

    yield use
    drop_solver_pool()


def solved_matrices(A: np.ndarray) -> list[np.ndarray]:
    """The matrices of one eigh argument: the matrix itself or each of a stack."""
    return list(A.reshape(-1, *A.shape[-2:]))


@pytest.fixture
def no_solves(monkeypatch):
    """Fail the test at the first node or level-trace solve: a run that must be
    refused before any solve then fails at once if it is not, instead of running on."""

    def refused(A):
        raise AssertionError(f"reached a solve of {len(solved_matrices(A))} matrices")

    monkeypatch.setattr(spectrum, "eigvalsh", refused)
    monkeypatch.setattr(evolve, "eigh", refused)


def transverse_field(n: int, g: float) -> np.ndarray:
    """Reference g * sum_k X_k, each X_k = I x ... x X x ... x I built by
    Kronecker products, with qubit 0 the least significant bit."""
    X, I = np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)
    return sum(
        g * functools.reduce(np.kron, [X if j == n - 1 - k else I for j in range(n)])
        for k in range(n)
    )


def expm_fine_steps(H, T, steps):
    """Independent reference: midpoint exponentials exp(-i h H(t/T)) by scipy expm."""
    Hx, Hp = transverse_field(H.n_qubits, H.g), np.diag(H.d)
    psi = initial_ground_state(H.n_qubits)
    h = T / steps
    for m in range(steps):
        s = (m + 0.5) / steps
        psi = expm(-1j * h * ((1 - s) * Hx + s * Hp)) @ psi
    return np.abs(psi) ** 2


def expm_step(H, plan: EvolutionPlan, s: int) -> np.ndarray:
    """Reference exact step exp(-i tau H(s/S)) by scipy expm, independent of
    the package's eigh path."""
    return expm(-1j * plan.tau * interpolate(H, s / plan.S))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (M + M.conj().T) / 2.0


def success_probabilities(H, Ts):
    """Final population of H.solutions after the CF4 passage, per T:
    the columns Ts, one total time or a vector of them, of one probe run
    until each is settled; the result has the shape of Ts. A T above one
    that settles at p >= SUCCESS_THRESHOLD gets NaN."""
    probe = _Probe(Ts)
    while probe.open.any():
        _probe_pass(H, [probe])
    return probe.p.reshape(np.shape(Ts))[()]


def reference_time_to_success(H, probes: dict | None = None) -> float:
    """The sequential search, one scalar-T probe per step.

    Reference for ``time_to_success``: double from T = 1 to the first
    crossing 2^k, then probe the 2-significant-figure decimals above 2^(k-1)
    in ascending order, each parsed from its decimal text, and return the
    first that succeeds; 2^k when none up to the first value >= 2^k does.
    ``probes``, when given, collects each probed T and its probability.
    """
    def success(T: float) -> bool:
        p = success_probabilities(H, T)
        if probes is not None:
            probes[T] = p
        return p >= SUCCESS_THRESHOLD

    T = 1.0
    if success(T):
        return 1.0
    while True:
        T *= 2.0
        if success(T):
            break
        if T >= 2**11:
            raise SweepTimeout(f"no success by T={T}; instance looks stuck")
    lo, hi = T / 2.0, T
    for e in itertools.count(-1):
        for m in range(10, 100):
            candidate = float(f"{m}e{e}")
            if candidate > lo and success(candidate):
                return candidate
            if candidate >= hi:
                return hi
