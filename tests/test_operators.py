import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from adiasearch.database import EncodedDatabase
from adiasearch.errors import InputError, LengthMismatch, NonFiniteResult, SOutOfRange
from adiasearch.operators import (
    SearchHamiltonian,
    _x_rotation,
    interpolate,
    operator_to_json,
    pauli_decompose,
    search_hamiltonian,
)
from conftest import transverse_field


def make_db(values):
    return EncodedDatabase(
        keys=tuple(f"k{i}" for i in range(len(values))),
        values=tuple(float(v) for v in values),
        codes={float(v): float(v) for v in values},
    )


# At target 0 the problem diagonal holds the stored values, squared, by index.


def test_database_operator_example(example_db):
    H = search_hamiltonian(example_db, 0.0)
    assert np.allclose(np.diag(H.d), np.diag(np.square([4.0, 3.0, 1.0, 2.0])))


def test_database_operator_two_entries():
    H = search_hamiltonian(make_db([5.0, 7.0]), 0.0)
    assert np.allclose(np.diag(H.d), np.diag(np.square([5.0, 7.0])))


def test_database_operator_constant_values():
    H = search_hamiltonian(make_db([3.5, 3.5, 3.5, 3.5]), 0.0)
    assert np.allclose(np.diag(H.d), 3.5**2 * np.eye(4))


def test_problem_hamiltonian_worked_example(example_db):
    Hp = np.diag(search_hamiltonian(example_db, 2.0).d)
    assert np.allclose(Hp, np.diag([4.0, 1.0, 1.0, 0.0]))
    Hp3 = np.diag(search_hamiltonian(example_db, 3.0).d)
    assert np.allclose(Hp3, np.diag([1.0, 0.0, 4.0, 1.0]))


def test_problem_hamiltonian_all_values_equal_target():
    Hp = np.diag(search_hamiltonian(make_db([2.0, 2.0]), 2.0).d)
    assert np.allclose(Hp, 0.0)


def test_problem_hamiltonian_is_psd_with_correct_argmin():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        values = rng.normal(scale=5.0, size=2**n)
        target = float(rng.normal(scale=5.0))
        diag = search_hamiltonian(make_db(values), target).d
        assert np.all(diag >= 0.0)
        assert np.argmin(diag) == np.argmin((values - target) ** 2)


def test_solutions_are_the_ground_level_of_the_diagonal():
    # Every index within DEGENERACY_TOL of min d, ascending, as a read-only attribute.
    H = SearchHamiltonian(2, 1.0, [4.0, 1e-10, 1.0, 0.0])
    assert H.solutions.tolist() == [1, 3]
    assert SearchHamiltonian(2, 1.0, [4.0, 1e-8, 1.0, 0.0]).solutions.tolist() == [3]
    assert search_hamiltonian(make_db([3.0, 1.0, 3.0, 2.0]), 3.0).solutions.tolist() == [0, 2]
    with pytest.raises(dataclasses.FrozenInstanceError):
        H.solutions = np.array([0])


def test_problem_hamiltonian_ground_energy_zero_iff_exact():
    diag = search_hamiltonian(make_db([4.0, 3.0, 1.0, 2.0]), 3.0).d
    assert np.min(diag) == 0.0
    assert np.sum(diag == 0.0) == 1  # unique target -> nondegenerate ground level


def test_search_hamiltonian_validated_at_construction():
    H = SearchHamiltonian(2, 0.7, [4, 1, 1, 0])
    assert [f.name for f in dataclasses.fields(H)] == ["n_qubits", "g", "d"]
    assert H.g == 0.7 and H.d.dtype == float
    assert interpolate(H, 0.3).dtype == np.float64
    assert np.array_equal(H.d, [4.0, 1.0, 1.0, 0.0])
    assert not H.d.flags.writeable
    with pytest.raises(InputError, match=r"^need at least one qubit, got 0$"):
        SearchHamiltonian(0, 1.0, [0.0])
    with pytest.raises(InputError):
        SearchHamiltonian(2, 0.0, [4.0, 1.0, 1.0, 0.0])
    with pytest.raises(LengthMismatch):
        SearchHamiltonian(2, 1.0, [4.0, 1.0, 1.0])
    with pytest.raises(InputError):
        SearchHamiltonian(1, 1.0, [1.0 + 1j, 0.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(InputError):
            SearchHamiltonian(1, 1.0, [bad, 0.0])


def initial_field(n: int, g: float) -> np.ndarray:
    """The initial Hamiltonian H(0) = g * sum_k X_k of an instance."""
    return interpolate(SearchHamiltonian(n, g, np.arange(2.0**n)), 0.0)


def test_initial_hamiltonian_single_qubit():
    H = initial_field(1, 1.0)
    assert np.allclose(H, [[0, 1], [1, 0]])


def test_initial_hamiltonian_two_qubit_spectrum():
    H = initial_field(2, 1.0)
    assert np.trace(H) == pytest.approx(0.0)
    w = np.linalg.eigvalsh(H)
    assert np.allclose(w, [-2.0, 0.0, 0.0, 2.0])


def test_initial_hamiltonian_ground_state():
    H = initial_field(2, 1.0)
    psi0 = 0.5 * np.array([1, -1, -1, 1], dtype=complex)
    assert np.allclose(H @ psi0, -2.0 * psi0)


def test_initial_hamiltonian_binomial_spectrum():
    g = 0.7
    n = 3
    w = np.linalg.eigvalsh(initial_field(n, g))
    expected = sorted(
        g * (n - 2 * k) for k in range(n + 1) for _ in range(math.comb(n, k))
    )
    assert np.allclose(np.sort(w), expected)


def test_x_rotation_matches_expm_and_holds_only_its_output():
    for n in range(1, 9):
        for angle in (0.0, 0.3, np.pi / 2, 2.5):
            reference = expm(-1j * angle * transverse_field(n, 1.0))
            assert np.max(np.abs(_x_rotation(n, angle) - reference)) <= 1e-12, (n, angle)
        assert np.array_equal(_x_rotation(n, 0.0), np.eye(2**n))
    # The output is 64 MiB at n = 11; the build peaks at it plus the 16 MiB
    # factor before it, and keeps nothing once it returns (a table of one
    # byte per entry would hold 4 MiB).
    tracemalloc.start()
    try:
        U = _x_rotation(11, 0.3)
        _, peak = tracemalloc.get_traced_memory()
        output = U.nbytes
        del U
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * output
    assert held < 2**16


def test_search_hamiltonian_allocates_no_dense_matrix():
    # One N x N float64 at n = 11 is 32 MiB; the instance keeps only n, g and d.
    d = np.random.default_rng(3).uniform(0, 50, size=2**11)
    tracemalloc.start()
    try:
        H = SearchHamiltonian(11, 1.0, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(H.d, d)
    assert peak < 2**20


def test_at_equals_endpoint_formula():
    # Every entry of the Kronecker-built field is exactly g or 0, so the
    # endpoint formula has the bits of interpolate, scalar or stacked.
    rng = np.random.default_rng(5)
    s = np.concatenate([np.linspace(0.0, 1.0, 11), rng.uniform(0, 1, size=3)])
    for n in range(1, 9):
        d = rng.uniform(0, 50, size=2**n)
        for g in (0.7, 1 / 3, 2.5, 1e-3):
            H = SearchHamiltonian(n, g, d)
            expected = (1 - s)[:, None, None] * transverse_field(n, g) + s[:, None, None] * np.diag(d)
            assert interpolate(H, s).tobytes() == expected.tobytes(), (n, g)
            for k in (0, 10, 3, 12):
                assert interpolate(H, s[k]).tobytes() == expected[k].tobytes(), (n, g, s[k])
                assert interpolate(H, float(s[k])).tobytes() == expected[k].tobytes(), (n, g, s[k])


def test_interpolate_endpoints(example_instance):
    H = example_instance
    Hx = transverse_field(2, 1.0)
    assert np.allclose(interpolate(H, 0.0), Hx)
    assert np.allclose(interpolate(H, 1.0), np.diag(H.d))
    mid = interpolate(H, 0.5)
    assert np.allclose(mid, (Hx + np.diag(H.d)) / 2)


def test_interpolate_affine_identity(example_instance):
    H = example_instance
    rng = np.random.default_rng(3)
    for _ in range(10):
        s1, s2 = rng.uniform(0, 0.5, size=2)
        lhs = interpolate(H, s1) + interpolate(H, s2)
        rhs = interpolate(H, s1 + s2) + interpolate(H, 0.0)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_interpolate_errors(example_instance):
    with pytest.raises(SOutOfRange):
        interpolate(example_instance, 1.5)
    with pytest.raises(SOutOfRange):
        interpolate(example_instance, -0.1)


def test_interpolate_stack_keeps_the_scalar_bits():
    rng = np.random.default_rng(11)
    for n in range(1, 8):
        H = SearchHamiltonian(n, float(rng.uniform(0.5, 2.0)), rng.uniform(0, 50, size=2**n))
        s = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, size=9)])
        stack = interpolate(H, s)
        assert stack.shape == (s.size, H.dim, H.dim)
        assert np.array_equal(stack, np.stack([interpolate(H, float(x)) for x in s])), n
    with pytest.raises(SOutOfRange, match=r"^interpolation parameter 1.5 outside \[0, 1\]$"):
        interpolate(H, np.array([0.2, 1.5, -1.0]))
    with pytest.raises(SOutOfRange, match=r"^interpolation parameter nan outside"):
        interpolate(H, np.array([0.2, np.nan]))


def test_pauli_decompose_worked_example():
    H = SearchHamiltonian(2, 1.0, [4.0, 1.0, 1.0, 0.0])
    assert pauli_decompose(H) == pytest.approx({"II": 1.5, "IZ": 1.0, "ZI": 1.0, "ZZ": 0.5})


def test_pauli_decompose_identity_and_transverse():
    # The transverse field is no part of the expansion, whatever its strength.
    for g in (1.0, 5.0):
        I4 = SearchHamiltonian(2, g, np.ones(4))
        assert pauli_decompose(I4) == {"II": 1.0}


def test_pauli_label_convention_lsb_is_rightmost():
    # Z on qubit 0 flips sign with the least significant bit.
    H = SearchHamiltonian(2, 1.0, [1.0, -1.0, 1.0, -1.0])
    assert pauli_decompose(H) == pytest.approx({"IZ": 1.0})


def _sign_matrix(dim: int) -> np.ndarray:
    """The +-1 matrix (-1)^popcount(i & z): column z is the diagonal of Z^z."""
    i = np.arange(dim)
    parity = sum(((i[:, None] & i) >> k) & 1 for k in range(dim.bit_length()))
    return np.where(parity % 2 == 0, 1.0, -1.0)


def _sign_matrix_coefficients(d: np.ndarray) -> np.ndarray:
    """I/Z coefficients of diag(d) by the +-1 sign-matrix product, z-mask order."""
    return _sign_matrix(len(d)) @ d / len(d)


def _z_mask(label: str) -> int:
    return int(label.replace("I", "0").replace("Z", "1"), 2)


def test_pauli_decompose_diagonal_matches_sign_matrix():
    rng = np.random.default_rng(23)
    eps = np.finfo(float).eps
    for n in range(2, 8):
        codes = rng.permutation(np.arange(1.0, 2**n + 1))
        for target, exact in ((float(codes[0]), True), (float(codes[0]) + 0.3, False)):
            d = (codes - target) ** 2
            terms = pauli_decompose(SearchHamiltonian(n, 1.0, d))
            want = _sign_matrix_coefficients(d)
            assert set("".join(terms)) <= {"I", "Z"}
            z_masks = [_z_mask(label) for label in terms]
            assert z_masks == sorted(z_masks)
            dropped = np.delete(want, z_masks)
            assert np.all(np.abs(dropped) <= n * eps * np.max(d))
            got = np.array(list(terms.values()))
            if exact:
                assert np.array_equal(got, want[z_masks])
            else:
                assert np.max(np.abs(got - want[z_masks])) <= n * eps * np.max(d)


def test_pauli_decompose_peak_memory_linear_in_dim():
    # The expansion holds a few 2^n vectors (about 0.5 MB at n = 11); a
    # single 4^n complex work array would be 64 MB.
    codes = np.random.default_rng(11).permutation(np.arange(1.0, 2**11 + 1))
    H = SearchHamiltonian(11, 1.0, (codes - codes[0]) ** 2)
    tracemalloc.start()
    try:
        terms = pauli_decompose(H)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert next(iter(terms)) == "I" * 11
    assert peak < 16 * 2**20


def test_pauli_decompose_refuses_an_overflowing_transform():
    # Every d_i is finite, but the transform's sums overflow to inf, and
    # inf - inf gives NaN, which the 1e-12 drop alone would discard.
    H = SearchHamiltonian(2, 1.0, np.full(4, 1.69e308))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteResult):
        pauli_decompose(H)


def test_operator_json_roundtrip(example_instance):
    data = operator_to_json(example_instance)
    assert data["n_qubits"] == 2
    assert {t["axes"] for t in data["pauli_terms"]} == {"II", "IZ", "ZI", "ZZ"}
    coefficients = np.zeros(4)
    for t in data["pauli_terms"]:
        coefficients[_z_mask(t["axes"])] = t["coeff"]
    assert np.allclose(_sign_matrix(4) @ coefficients, example_instance.d, atol=1e-10)


def test_coupling_strength_positive():
    assert np.allclose(initial_field(1, 2.5), [[0, 2.5], [2.5, 0]])
    with pytest.raises(InputError, match=r"^coupling strength must be positive, got 0.0$"):
        SearchHamiltonian(2, 0.0, np.zeros(4))
    with pytest.raises(InputError, match=r"^coupling strength must be positive, got -1.0$"):
        SearchHamiltonian(2, -1.0, np.zeros(4))
    with pytest.raises(InputError, match=r"^coupling strength must be positive, got nan$"):
        SearchHamiltonian(2, np.nan, np.zeros(4))
    with pytest.raises(InputError, match=r"^coupling strength must be finite, got inf$"):
        SearchHamiltonian(2, np.inf, np.zeros(4))
    # Finite g whose ground level -n*g overflows is a numeric failure.
    assert SearchHamiltonian(1, 1e308, np.zeros(2)).g == 1e308
    assert np.isfinite(initial_field(1, 1e308)).all()
    with pytest.raises(
        NonFiniteResult, match=r"^ground level -n\*g of the transverse field overflows at g = 1e\+308$"
    ):
        SearchHamiltonian(2, 1e308, np.zeros(4))
