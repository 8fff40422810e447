import numpy as np
import pytest
from numpy.testing import assert_allclose

from switchlab import linalg
from switchlab.linalg import (LabeledSpace, choi_vector, fidelity, kron_all,
                              partial_trace, random_state, random_unitary,
                              reorder_matrix, reorder_vector)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_partial_trace_product_state():
    rng = np.random.default_rng(2)
    rho_a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho_b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    spaces = [LabeledSpace("A", 2), LabeledSpace("B", 3)]
    out = partial_trace(np.kron(rho_a, rho_b), spaces, {"B"})
    assert_allclose(out, rho_a * np.trace(rho_b), atol=1e-12)


def test_partial_trace_maximally_entangled():
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    spaces = [LabeledSpace("A", 2), LabeledSpace("B", 2)]
    assert_allclose(partial_trace(np.outer(phi, phi.conj()), spaces, {"A"}),
                    I2 / 2, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(3)
    spaces = [LabeledSpace("a", 2), LabeledSpace("b", 4), LabeledSpace("c", 3)]
    m = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
    for traced in ({"a"}, {"b"}, {"a", "c"}):
        out = partial_trace(m, spaces, traced)
        assert abs(np.trace(out) - np.trace(m)) < 1e-10


def test_partial_trace_is_linear():
    rng = np.random.default_rng(4)
    spaces = [LabeledSpace("a", 2), LabeledSpace("b", 2)]
    m1 = rng.normal(size=(4, 4))
    m2 = rng.normal(size=(4, 4))
    assert_allclose(partial_trace(2 * m1 + m2, spaces, {"b"}),
                    2 * partial_trace(m1, spaces, {"b"}) + partial_trace(m2, spaces, {"b"}))


def test_partial_trace_rejects_bad_inputs():
    spaces = [LabeledSpace("a", 2), LabeledSpace("b", 2)]
    with pytest.raises(ValueError, match="unknown space"):
        partial_trace(np.eye(4), spaces, {"nope"})
    with pytest.raises(ValueError, match="does not match"):
        partial_trace(np.eye(5), spaces, {"a"})


def test_choi_vector_values():
    assert_allclose(choi_vector(I2), [1, 0, 0, 1])
    assert_allclose(choi_vector(X), [0, 1, 1, 0])
    assert_allclose(choi_vector(Z), [1, 0, 0, -1])
    assert abs(np.vdot(choi_vector(I2), choi_vector(I2)) - 2) < 1e-12


def test_choi_vector_rejects_wrong_shape():
    with pytest.raises(ValueError):
        choi_vector(np.eye(3))


def test_choi_inner_product_is_operator_overlap():
    rng = np.random.default_rng(6)
    for _ in range(20):
        u = random_unitary(2, rng)
        v = random_unitary(2, rng)
        lhs = np.vdot(choi_vector(u), choi_vector(v))
        assert abs(lhs - np.trace(u.conj().T @ v)) < 1e-10


def test_reorder_vector_roundtrip():
    rng = np.random.default_rng(7)
    v = rng.normal(size=24)
    out = reorder_vector(v, [2, 3, 4], [2, 0, 1])
    back = reorder_vector(out, [4, 2, 3], [1, 2, 0])
    assert_allclose(back, v)


def test_reorder_matrix_matches_kron_swap():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3))
    swapped = reorder_matrix(np.kron(a, b), [2, 3], [1, 0])
    assert_allclose(swapped, np.kron(b, a), atol=1e-12)


def test_kron_all_order():
    a = np.array([1, 2.0])
    b = np.array([1, 0.0])
    c = np.array([0, 1.0])
    assert_allclose(kron_all([a, b, c]), np.kron(np.kron(a, b), c))


def test_random_unitary_and_fidelity():
    rng = np.random.default_rng(9)
    u = random_unitary(4, rng)
    assert linalg.is_unitary(u)
    s = random_state(4, rng)
    assert abs(fidelity(s, s) - 1) < 1e-12
    assert fidelity(s, u @ s) <= 1 + 1e-12


def test_as_state_validation():
    with pytest.raises(ValueError, match="norm"):
        linalg.as_state([1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        linalg.as_state([np.nan, 0.0])
