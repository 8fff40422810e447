import numpy as np
import pytest
from numpy.testing import assert_allclose

from switchlab import linalg
from switchlab.linalg import choi_vector, kron_all, random_unitary

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


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


def test_kron_all_order():
    a = np.array([1, 2.0])
    b = np.array([1, 0.0])
    c = np.array([0, 1.0])
    assert_allclose(kron_all([a, b, c]), np.kron(np.kron(a, b), c))


def test_random_unitary_and_fidelity():
    rng = np.random.default_rng(9)
    u = random_unitary(4, rng)
    assert linalg.is_unitary(u)


def test_as_state_validation():
    with pytest.raises(ValueError, match="norm"):
        linalg.as_state([1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        linalg.as_state([np.nan, 0.0])


def test_basis_state_rejects_indices_outside_the_dimension():
    assert_allclose(linalg.basis_state(3, 2), [0, 0, 1])
    for index in (3, -1):
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            linalg.basis_state(3, index)
