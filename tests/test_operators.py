import math

import numpy as np
import pytest

from adiasearch.database import EncodedDatabase
from adiasearch.errors import (
    DimensionMismatch,
    InputError,
    LengthMismatch,
    NonFiniteResult,
    SOutOfRange,
)
from adiasearch.operators import (
    HermitianOperator,
    PauliString,
    SearchHamiltonian,
    _flip_counts,
    initial_hamiltonian,
    interpolate,
    operator_from_json,
    operator_to_json,
    pauli_compose,
    pauli_decompose,
    search_hamiltonian,
)
from conftest import random_hermitian, reference_pauli_decompose


def make_db(values):
    n = len(values).bit_length() - 1
    return EncodedDatabase(
        n_qubits=n,
        entries=tuple((i, float(v)) for i, v in enumerate(values)),
        key_decoder={i: f"k{i}" for i in range(len(values))},
        value_encoder={str(v): float(v) for v in values},
    )


# At target 0 the problem diagonal holds the stored values, squared, by index.


def test_database_operator_example(example_db):
    H = search_hamiltonian(example_db, 0.0)
    assert np.allclose(np.diag(H.d), np.diag(np.square([4.0, 3.0, 1.0, 2.0])))
    assert np.array_equal(H.problem_operator().matrix, np.diag(H.d))


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


def test_problem_hamiltonian_ground_energy_zero_iff_exact():
    diag = search_hamiltonian(make_db([4.0, 3.0, 1.0, 2.0]), 3.0).d
    assert np.min(diag) == 0.0
    assert np.sum(diag == 0.0) == 1  # unique target -> nondegenerate ground level


def test_search_hamiltonian_validated_at_construction():
    H = SearchHamiltonian(2, 0.7, [4, 1, 1, 0])
    assert H.g == 0.7 and H.d.dtype == float
    assert np.array_equal(H.Hi, initial_hamiltonian(2, 0.7).matrix)
    assert np.array_equal(H.problem_operator().matrix, np.diag([4.0, 1.0, 1.0, 0.0]).astype(complex))
    assert not (H.d.flags.writeable or H.Hi.flags.writeable)
    with pytest.raises(InputError):
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


def test_initial_hamiltonian_single_qubit():
    H = initial_hamiltonian(1, 1.0)
    assert np.allclose(H.matrix, [[0, 1], [1, 0]])


def test_initial_hamiltonian_two_qubit_spectrum():
    H = initial_hamiltonian(2, 1.0)
    assert np.trace(H.matrix) == pytest.approx(0.0)
    w = np.linalg.eigvalsh(H.matrix)
    assert np.allclose(w, [-2.0, 0.0, 0.0, 2.0])


def test_initial_hamiltonian_ground_state():
    H = initial_hamiltonian(2, 1.0)
    psi0 = 0.5 * np.array([1, -1, -1, 1], dtype=complex)
    assert np.allclose(H.matrix @ psi0, -2.0 * psi0)


def test_initial_hamiltonian_binomial_spectrum():
    g = 0.7
    n = 3
    w = np.linalg.eigvalsh(initial_hamiltonian(n, g).matrix)
    expected = sorted(
        g * (n - 2 * k) for k in range(n + 1) for _ in range(math.comb(n, k))
    )
    assert np.allclose(np.sort(w), expected)


def test_flip_counts_cached_read_only_and_exact():
    for n in range(1, 9):
        i = np.arange(2**n)
        expected = sum(((i[:, None] ^ i) >> k) & 1 for k in range(n))
        w = _flip_counts(n)
        assert w is _flip_counts(n)
        assert w.dtype == np.uint8
        assert not w.flags.writeable
        assert np.array_equal(w, expected)


def test_at_equals_endpoint_formula():
    rng = np.random.default_rng(5)
    for n in range(2, 8):
        d = rng.uniform(0, 50, size=2**n)
        H = SearchHamiltonian(n, float(rng.uniform(0.5, 2.0)), d)
        for s in np.linspace(0.0, 1.0, 37):
            assert np.array_equal(H.at(s), (1 - s) * H.Hi + s * np.diag(d)), (n, s)


def test_interpolate_endpoints(example_instance):
    H = example_instance
    assert np.allclose(interpolate(H, 0.0), H.Hi)
    assert np.allclose(interpolate(H, 1.0), np.diag(H.d))
    mid = interpolate(H, 0.5)
    assert np.allclose(mid, (H.Hi + np.diag(H.d)) / 2)


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


def test_pauli_decompose_worked_example():
    H = HermitianOperator(2, np.diag([4.0, 1.0, 1.0, 0.0]).astype(complex))
    terms = {t.label: t.coefficient for t in pauli_decompose(H)}
    assert terms == pytest.approx({"II": 1.5, "IZ": 1.0, "ZI": 1.0, "ZZ": 0.5})


def test_pauli_decompose_identity_and_transverse():
    I4 = HermitianOperator(2, np.eye(4, dtype=complex))
    assert {t.label: t.coefficient for t in pauli_decompose(I4)} == {"II": 1.0}
    terms = {t.label: t.coefficient for t in pauli_decompose(initial_hamiltonian(2, 1.0))}
    assert terms == pytest.approx({"IX": 1.0, "XI": 1.0})


def test_pauli_label_convention_lsb_is_rightmost():
    # Z on qubit 0 flips sign with the least significant bit.
    H = HermitianOperator(2, np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex))
    terms = {t.label: t.coefficient for t in pauli_decompose(H)}
    assert terms == pytest.approx({"IZ": 1.0})


def test_pauli_compose_examples():
    terms = [
        PauliString.from_label(1.5, "II"),
        PauliString.from_label(1.0, "IZ"),
        PauliString.from_label(1.0, "ZI"),
        PauliString.from_label(0.5, "ZZ"),
    ]
    H = pauli_compose(terms, 2)
    assert np.allclose(H.matrix, np.diag([4.0, 1.0, 1.0, 0.0]))

    assert np.allclose(pauli_compose([], 2).matrix, np.zeros((4, 4)))
    X2 = pauli_compose([PauliString.from_label(2.0, "X")], 1)
    assert np.allclose(X2.matrix, [[0, 2], [2, 0]])


def test_pauli_compose_length_mismatch():
    with pytest.raises(LengthMismatch):
        pauli_compose([PauliString.from_label(1.0, "Z")], 2)


def test_pauli_roundtrip_random_hermitian():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4, 5):
        H = HermitianOperator(n, random_hermitian(rng, 2**n))
        back = pauli_compose(pauli_decompose(H), n)
        assert np.allclose(back.matrix, H.matrix, atol=1e-10)


def test_pauli_decompose_matches_reference_loop():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 4, 5):
        H = HermitianOperator(n, random_hermitian(rng, 2**n))
        got = pauli_decompose(H)
        want = reference_pauli_decompose(H)
        assert [t.label for t in got] == [t.label for t in want]
        assert max(abs(a.coefficient - b.coefficient) for a, b in zip(got, want)) <= 1e-12


def _sign_matrix_coefficients(d: np.ndarray) -> np.ndarray:
    """I/Z coefficients of diag(d) by the +-1 sign-matrix product, z-mask order."""
    i = np.arange(len(d))
    parity = sum(((i[:, None] & i) >> k) & 1 for k in range(len(d).bit_length()))
    return np.where(parity % 2 == 0, 1.0, -1.0) @ d / len(d)


def test_pauli_decompose_diagonal_matches_sign_matrix():
    rng = np.random.default_rng(23)
    eps = np.finfo(float).eps
    for n in range(2, 8):
        codes = rng.permutation(np.arange(1.0, 2**n + 1))
        for target, exact in ((float(codes[0]), True), (float(codes[0]) + 0.3, False)):
            d = (codes - target) ** 2
            terms = pauli_decompose(HermitianOperator(n, np.diag(d).astype(complex)))
            want = _sign_matrix_coefficients(d)
            assert set("".join(t.label for t in terms)) <= {"I", "Z"}
            z_masks = [int(t.label.replace("I", "0").replace("Z", "1"), 2) for t in terms]
            assert z_masks == sorted(z_masks)
            dropped = np.delete(want, z_masks)
            assert np.all(np.abs(dropped) <= n * eps * np.max(d))
            got = np.array([t.coefficient for t in terms])
            if exact:
                assert np.array_equal(got, want[z_masks])
            else:
                assert np.max(np.abs(got - want[z_masks])) <= n * eps * np.max(d)


def test_pauli_decompose_rejects_non_real_coefficient():
    H = HermitianOperator(2, np.zeros((4, 4), dtype=complex))
    bad = np.zeros((4, 4), dtype=complex)
    bad[1, 0] = 1.0  # |1><0|: the IX coefficient is 1/4, the IY one -i/4
    object.__setattr__(H, "matrix", bad)
    with pytest.raises(InputError, match=r"for \('Y', 'I'\)"):
        pauli_decompose(H)


def test_operator_json_roundtrip(example_instance):
    Hp = example_instance.problem_operator()
    data = operator_to_json(Hp)
    assert data["n_qubits"] == 2
    assert {t["axes"] for t in data["pauli_terms"]} == {"II", "IZ", "ZI", "ZZ"}
    back = operator_from_json(data)
    assert np.allclose(back.matrix, Hp.matrix, atol=1e-10)


def test_hermiticity_enforced():
    with pytest.raises(InputError):
        HermitianOperator(1, np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(DimensionMismatch):
        HermitianOperator(2, np.eye(2, dtype=complex))


def test_coupling_strength_positive():
    assert np.allclose(initial_hamiltonian(1, 2.5).matrix, [[0, 2.5], [2.5, 0]])
    with pytest.raises(InputError):
        initial_hamiltonian(2, 0.0)
    with pytest.raises(InputError):
        initial_hamiltonian(2, -1.0)
    # Finite g whose ground level -n*g overflows is a numeric failure.
    assert np.isfinite(initial_hamiltonian(1, 1e308).matrix).all()
    with pytest.raises(NonFiniteResult):
        initial_hamiltonian(2, 1e308)
