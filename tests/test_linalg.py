import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

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


def _kron_chain(factors):
    out = np.array([[1.0 + 0j]]) if np.ndim(factors[0]) == 2 else np.array([1.0 + 0j])
    for f in factors:
        out = np.kron(out, f)
    return out


def _bits_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def test_kron_all_is_bit_identical_to_a_kron_chain():
    rng = np.random.default_rng(12)

    def rand(*shape):   # complex entries, about a third of the parts -0.0
        z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        flat = z.reshape(-1).view(np.float64)
        flat[rng.random(flat.size) < 0.3] = -0.0
        return z

    cases = [
        [rand(4), rand(4), rand(2), rand(4)],             # vectors
        [rand(2, 2), rand(3, 3), rand(2, 2)],             # square matrices
        [rand(2, 3), rand(3, 1), rand(1, 4)],             # rectangular matrices
        [rand(3), rand(2, 2), rand(4)],                   # vector first, then mixed
        [rand(2, 2), rand(3), rand(2, 5)],                # matrix first, then mixed
        [np.array([1.0, -0.0]), np.array([-0.0, 2.0])],   # real vectors, signed zeros
        [[[1, 2], [3, 4.0]], np.array([[-0.0, 1], [0, -0.0]])],   # nested lists
        [rand(3)],
    ]
    for factors in cases:
        assert _bits_equal(kron_all(factors), _kron_chain(factors))


def test_oracle_choi_ket_is_bit_identical_on_every_promise_set(promise_sets):
    from switchlab import oracle_choi_ket
    sets = promise_sets[1]
    assert len(sets) == 460
    for oracle in sets:
        want = _kron_chain([choi_vector(g.matrix) for g in oracle.gates])
        assert _bits_equal(oracle_choi_ket(oracle), want)


def test_random_unitary_and_fidelity():
    rng = np.random.default_rng(9)
    u = random_unitary(4, rng)
    assert linalg.is_unitary(u)


@pytest.mark.parametrize("amplitudes, message", [
    ([1.0, 1.0], "state norm 1.414213562373095. deviates from 1"),
    ([np.nan, 0.0], "state has non-finite amplitudes"),
    ([0.0, np.inf], "state has non-finite amplitudes"),
    ([-np.inf, 0.0], "state has non-finite amplitudes"),
    ([complex(0.0, np.nan), 0.0], "state has non-finite amplitudes"),
    ([1e200, 1e200], "state norm inf deviates from 1 by more than 1e-10"),
    ([0.0, 0.0], "state norm 0.0 deviates from 1 by more than 1e-10"),
], ids=["unnormalized", "nan", "inf", "-inf", "imaginary-nan", "overflow", "zero"])
def test_as_state_validation(amplitudes, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        linalg.as_state(amplitudes)


def test_basis_state_rejects_indices_outside_the_dimension():
    assert_allclose(linalg.basis_state(3, 2), [0, 0, 1])
    for index in (3, -1):
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            linalg.basis_state(3, index)


def test_basis_state_reads_its_index_as_an_integer():
    # True used to index as a mask, setting every amplitude (norm sqrt 2)
    assert_array_equal(linalg.basis_state(2, True), [0, 1])
    assert_array_equal(linalg.basis_state(3, np.int64(2)), [0, 0, 1])
    with pytest.raises(ValueError, match="basis index must be an integer, not 1.5"):
        linalg.basis_state(2, 1.5)
