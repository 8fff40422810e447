"""Promise censuses under Hadamard and Fourier sign matrices.

The Fourier side is the paper's contrast: the earlier phase-estimation
promise needs a target dimension that grows with N, while the +-1 promise
needs only a qubit.  Every ordering product uses the same gates, so
det Pi_x = det Pi_0; Pi_x = omega**k Pi_0 then forces omega**(k d) = 1, and
a Fourier column y needs P | y d.  At d = 2 and P = 4 columns 1 and 3 are
empty; Weyl gates at d = 4 fill all four.

The exact census redoes the 460 sets in integer arithmetic: each gate of G
times sqrt2**k (k = 0 for I, Z, X, Y and 1 for the other six) has Gaussian
integer entries, so it runs through the same word table as the real-block
integer matrix [[A, -B], [B, A]] of A + iB.
"""
import numpy as np
import pytest

from switchlab import (PermutationSet, SIGMA_STAR, all_products, basis_state,
                       enumerate_promise_sets, fourier_matrix, gate_set_G, hadamard_m4)
from switchlab.gates import NamedGate
from switchlab.oracles import _gate_words, _word_products
from switchlab.switch import _readout

CYCLIC = PermutationSet.from_strings(["ABC", "BCA", "CAB"])


def weyl_gates(d):
    """The d**2 Weyl gates X**a Z**b: X shifts |j> to |j + 1>, Z is diag(omega**j)."""
    x = np.roll(np.eye(d), 1, axis=0)
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return [NamedGate(f"X{a}Z{b}", np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b))
            for a in range(d) for b in range(d)]


CENSUS = [
    ("G, sigma*, F4", gate_set_G, SIGMA_STAR, (316, 0, 42, 0)),
    ("Weyl d=3, cyclic, F3", lambda: weyl_gates(3), CYCLIC, (153, 72, 72)),
    ("G, cyclic, F3", gate_set_G, CYCLIC, (124, 0, 0)),
    ("Weyl d=4, sigma*, F4", lambda: weyl_gates(4), SIGMA_STAR, (2368, 768, 1152, 768)),
]


@pytest.mark.parametrize("gates, perms, per_column", [c[1:] for c in CENSUS],
                         ids=[c[0] for c in CENSUS])
def test_fourier_census_and_the_determinant_rule(gates, perms, per_column):
    gates = gates()
    d, m = gates[0].dim, fourier_matrix(perms.P)
    census, sets = enumerate_promise_sets(gates, perms, m)
    assert census.per_column == per_column
    # column y needs P | y d: at d = 2 that empties every column with P not dividing 2y
    assert all(count == 0 for y, count in enumerate(per_column) if (y * d) % perms.P)
    # every listed set decodes its column with certainty from |0>
    pis = np.stack([all_products(s, perms) for s in sets])
    dist = _readout(pis, m._readout, basis_state(d, 0), 0.0)
    success = dist[np.arange(len(sets)), [s.claimed_y for s in sets]]
    assert success.min() >= 1 - 1e-9


def test_fourier_columns_are_hadamard_columns(promise_sets):
    # F4's columns 0 and 2, (1, 1, 1, 1) and (1, -1, 1, -1), are M4's columns
    # 0 and 3, so they hold the same sets; F4's other columns need i
    f4, m4 = fourier_matrix(4), hadamard_m4()
    assert np.max(np.abs(f4.entries[:, [0, 2]] - m4.entries[:, [0, 3]])) < 1e-15
    _, fourier = enumerate_promise_sets(gate_set_G(), SIGMA_STAR, f4)
    for fy, hy in ((0, 0), (2, 3)):
        assert ([s.names() for s in fourier if s.claimed_y == fy]
                == [s.names() for s in promise_sets[1] if s.claimed_y == hy])


def gaussian_blocks(gates):
    """Each gate times the least sqrt2**k that makes it a Gaussian-integer
    matrix A + iB, written as the integer block [[A, -B], [B, A]]."""
    blocks = []
    for g in gates:
        scaled = next(s for s in (g.matrix, g.matrix * np.sqrt(2))
                      if np.max(np.abs(s - np.rint(s))) < 1e-12)
        a, b = np.rint(scaled.real).astype(np.int64), np.rint(scaled.imag).astype(np.int64)
        blocks.append(np.block([[a, -b], [b, a]]))
    return np.stack(blocks)


def times_i(m):
    """i (A + iB) = -B + iA, as a map of the blocks [[A, -B], [B, A]]."""
    d = m.shape[-1] // 2
    a, b = m[..., :d, :d], m[..., d:, :d]
    return np.block([[-b, -a], [a, -b]])


def exact_census(gates, perms, m):
    """(per-column counts, [(gate names, smallest column)]) from exact tests
    M_x == s_xy M_0, for sign matrices whose entries are powers of i."""
    g, n = len(gates), perms.N
    words = _gate_words(gaussian_blocks(gates), n)
    assignments = np.stack(np.unravel_index(np.arange(g ** n), (g,) * n), axis=1)
    prods = _word_products(words, g, assignments, perms.index)   # [C, P, 2d, 2d], integers
    powers = [prods[:, 0]]
    for _ in range(3):
        powers.append(times_i(powers[-1]))
    # match[c, x, k]: ordering x of assignment c is i**k times the reference
    match = np.stack([np.all(prods == p[:, None], axis=(-2, -1)) for p in powers], axis=-1)
    exponent = np.rint(np.angle(m.entries) * 2 / np.pi).astype(np.int64) % 4   # s = i**exponent
    ok = np.all(match[:, np.arange(perms.P)[:, None], exponent], axis=1)   # [C, Y]
    hits = np.flatnonzero(ok.any(axis=1))
    listing = [(tuple(gates[i].name for i in assignments[c]), int(np.argmax(ok[c])))
               for c in hits]
    counts = np.bincount([y for _, y in listing], minlength=perms.P)
    return tuple(int(c) for c in counts), listing


@pytest.mark.parametrize("m, per_column", [(hadamard_m4(), (316, 60, 42, 42)),
                                           (fourier_matrix(4), (316, 0, 42, 0))],
                         ids=["M4", "F4"])
def test_exact_census_reproduces_the_float_enumeration(m, per_column):
    gates = gate_set_G()
    exact, listing = exact_census(gates, SIGMA_STAR, m)
    census, sets = enumerate_promise_sets(gates, SIGMA_STAR, m)
    assert exact == census.per_column == per_column
    assert listing == [(s.names(), s.claimed_y) for s in sets]   # set for set, in order
