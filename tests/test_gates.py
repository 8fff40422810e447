import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from switchlab import (choi_vector, fourier_matrix, gate_set_G, hadamard_m4,
                       pauli, sylvester_hadamard)
from switchlab.gates import NamedGate, SignMatrix


def test_pauli_values():
    assert_allclose(pauli("1").matrix, np.eye(2))
    assert_allclose(pauli("Z").matrix, [[1, 0], [0, -1]])
    x = pauli("X").matrix
    assert_allclose(x @ x, np.eye(2))
    with pytest.raises(ValueError):
        pauli("Q")


def test_named_gate_rejects_nonunitary():
    with pytest.raises(ValueError, match="unitary"):
        NamedGate("bad", np.array([[1, 1], [0, 1]], dtype=complex))


def test_gate_set_has_ten_unitaries():
    gates = gate_set_G()
    assert len(gates) == 10
    for g in gates:
        err = np.max(np.abs(g.matrix.conj().T @ g.matrix - np.eye(2)))
        assert err <= 1e-12


def test_gate_set_choi_projectors_span_ten_dimensions():
    # rank of the stacked, flattened Choi projectors
    rows = []
    for g in gate_set_G():
        v = choi_vector(g.matrix)
        rows.append(np.outer(v, v.conj()).reshape(-1))
    rank = np.linalg.matrix_rank(np.stack(rows), tol=1e-10)
    assert rank == 10


def test_bisector_gate_squares_to_identity():
    g = {x.name: x for x in gate_set_G()}["(Z+X)/sqrt2"]
    assert_allclose(g.matrix @ g.matrix, np.eye(2), atol=1e-12)


def test_order4_matrix_rows_and_entries():
    m = hadamard_m4()
    assert m.P == 4
    assert np.array_equal(m.entries @ m.entries.T, 4 * np.eye(4, dtype=np.int64))
    assert_allclose(m.as_gate() @ m.as_gate(), np.eye(4), atol=1e-12)  # self-inverse
    assert m.entries[2, 1] == -1
    assert np.array_equal(m.entries[1], [1, 1, -1, -1])


def test_sign_matrix_validation():
    with pytest.raises(ValueError, match="orthogonal"):
        SignMatrix(np.array([[1, 1], [1, 1]]))
    with pytest.raises(ValueError, match="first row"):
        SignMatrix(np.array([[1, -1], [1, 1]]))
    with pytest.raises(ValueError, match=r"\+-1"):
        SignMatrix(np.array([[1, 0], [0, 1]]))


def test_sign_matrix_rejects_an_empty_matrix():
    # the first-row check used to raise IndexError
    with pytest.raises(ValueError, match="square and nonempty"):
        SignMatrix(np.zeros((0, 0)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [hadamard_m4(), sylvester_hadamard(3)])
def test_complex_typed_signs_construct_silently_with_the_integer_gate(m):
    # they used to print numpy's ComplexWarning: Casting complex values to real
    c = SignMatrix(m.entries.astype(complex))
    assert c.entries.dtype == np.int64 and np.array_equal(c.entries, m.entries)
    for got, want in ((c.as_gate(), m.as_gate()), (c.as_gate_inverse(), m.as_gate_inverse())):
        assert got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error")
def test_phase_matrix_validation():
    w = np.exp(2j * np.pi / 3)
    for bad in ([[1, 1], [1, 1j]], [[1, 1], [1, np.nan]], [[1, 1], [1, -1.1]]):
        with pytest.raises(ValueError, match=r"\+-1 or P-th roots of unity"):
            SignMatrix(np.array(bad))
    with pytest.raises(ValueError, match="orthogonal"):
        SignMatrix(np.array([[1, 1, 1], [1, w, w], [1, w, w]]))
    with pytest.raises(ValueError, match="first row"):
        SignMatrix(fourier_matrix(3).entries[:, [1, 0, 2]])


@pytest.mark.parametrize("p", range(1, 9))
def test_fourier_gate_is_the_transform_bit_for_bit(p):
    j = np.arange(p)
    f = fourier_matrix(p)
    assert f.as_gate().tobytes() == (np.exp(2j * np.pi * np.outer(j, j) / p) / np.sqrt(p)).tobytes()
    # the inverse conjugates the phases; for +-1 entries it is the old transpose, bit for bit
    assert_allclose(f.as_gate_inverse() @ f.as_gate(), np.eye(p), atol=1e-12)
    if p in (1, 2, 4, 8):
        m = sylvester_hadamard(p.bit_length() - 1)
        assert m.as_gate_inverse().tobytes() == (m.entries.T.astype(complex) / np.sqrt(p)).tobytes()


@pytest.mark.parametrize("m", [hadamard_m4(), sylvester_hadamard(0), sylvester_hadamard(3),
                               fourier_matrix(3), fourier_matrix(4)])
def test_sign_matrix_readout_constants_are_read_only_copies(m):
    # the decode kernel reads these in place of H[:, 0], H^-1 and conj(H^-1) per call
    h = m.as_gate()
    uinv = h.conj().T
    for kept, fresh in zip(m._readout, (h[:, 0], uinv, uinv.conj())):
        assert not kept.flags.writeable
        assert kept.strides == fresh.strides and kept.dtype == fresh.dtype
        assert kept.tobytes() == fresh.tobytes()   # the bits, signed zeros included
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 0.0
    assert not h.flags.writeable and not m.entries.flags.writeable


@pytest.mark.parametrize("k", [0, 1, 2, 3, 6])
def test_sylvester_construction(k):
    m = sylvester_hadamard(k)
    p = 2 ** k
    assert m.P == p
    assert np.array_equal(m.entries @ m.entries.T, p * np.eye(p, dtype=np.int64))
    assert np.all(m.entries[0] == 1) and np.all(m.entries[:, 0] == 1)


def test_sylvester_base_cases_and_limit():
    assert_allclose(sylvester_hadamard(0).entries, [[1]])
    assert_allclose(sylvester_hadamard(1).entries, [[1, 1], [1, -1]])
    with pytest.raises(ValueError, match="too large"):
        sylvester_hadamard(7)


def test_order4_matrix_is_permutation_of_sylvester():
    a = hadamard_m4().entries
    b = sylvester_hadamard(2).entries
    found = any(
        np.array_equal(a, b[np.array(rp)][:, np.array(cp)])
        for rp in itertools.permutations(range(4))
        for cp in itertools.permutations(range(4))
    )
    assert found


@pytest.mark.parametrize("p", [1, 2, 4, 5])
def test_fourier_matrix_unitary(p):
    f = fourier_matrix(p).as_gate()
    assert_allclose(f @ f.conj().T, np.eye(p), atol=1e-12)


@pytest.mark.parametrize("build, arg", [(fourier_matrix, 2.5), (fourier_matrix, "4"),
                                        (sylvester_hadamard, 2.5), (sylvester_hadamard, None)])
def test_matrix_orders_must_be_integers(build, arg):
    # fourier_matrix(2.5) was a 3x3 matrix scaled by 1/sqrt(2.5), not unitary;
    # sylvester_hadamard(2.5) raised TypeError from range
    with pytest.raises(ValueError, match=f"must be an integer, not {arg!r}"):
        build(arg)
    assert fourier_matrix(np.int64(3)).P == 3 and sylvester_hadamard(np.int8(2)).P == 4


def test_fourier_small_values():
    assert_allclose(fourier_matrix(1).as_gate(), [[1]])
    assert_allclose(fourier_matrix(2).as_gate(), np.array([[1, 1], [1, -1]]) / np.sqrt(2),
                    atol=1e-12)
