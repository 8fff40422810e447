import hashlib
import itertools
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from switchlab import (OracleSet, PermutationSet, SIGMA_STAR, all_products, basis_state,
                       build_effective_ket, build_effective_process,
                       build_switch_process_ket, chart_fixture, choi_vector,
                       definite_order_process, enumerate_promise_sets, gate_set_G,
                       kron_all, oracle_choi_ket, random_state, run_hadamard_algorithm,
                       success_probability, superinstrument, uniform_witness,
                       verify_ccgo_decomposition, witness_operator)
from switchlab.gates import NamedGate
from switchlab.linalg import random_unitary
from switchlab.processes import ProcessMatrix, WitnessOperator, _slot_step

LINK = np.array([1, 0, 0, 1], dtype=complex)
# three slots: the cyclic orderings plus one transposition, 136 promise sets
SIGMA_3 = PermutationSet.from_strings(["ABC", "BCA", "CAB", "ACB"])
SIGMA_5 = PermutationSet.from_strings(["ABCDE", "ACBED", "DCAEB", "EBADC"])


def random_oracle(rng, n=4):
    return OracleSet(tuple(NamedGate(f"U{i}", random_unitary(2, rng)) for i in range(n)))


@pytest.fixture(scope="module")
def w_eff(m4):
    return build_effective_process(basis_state(2, 0), m4)


# ---------------------------------------------------------------------------
# ideal wiring ket
# ---------------------------------------------------------------------------

def test_switch_ket_norm():
    w4 = build_switch_process_ket(SIGMA_STAR)
    # four orthogonal branches, five links of squared norm 2 each
    assert abs(np.vdot(w4, w4).real - 128.0) < 1e-9
    for perms in (SIGMA_3, SIGMA_5):   # P branches, N + 1 links each
        ket = build_switch_process_ket(perms)
        assert ket.size == perms.P ** 2 * 2 ** (2 * perms.N + 2)
        assert abs(np.vdot(ket, ket).real - perms.P * 2 ** (perms.N + 1)) < 1e-9


def kron_chain(order, head, extra=()):
    """Reference wiring: ``head`` (a ket on the ``extra`` legs and the first
    slot's input), then one link per slot in wiring order, as one Kronecker
    product, its legs transposed to (extra, parties, t_f)."""
    labels = list(extra) + [f"{s}_{io}" for s in order for io in "IO"] + ["t_f"]
    qubits = [f"{s}_{io}" for s in sorted(order) for io in "IO"]
    vec = kron_all([head] + [LINK] * len(order)).reshape([2] * len(labels))
    return vec.transpose([labels.index(lab) for lab in [*extra, *qubits, "t_f"]]).reshape(-1)


@pytest.mark.parametrize("x", range(4))
def test_switch_ket_branch_wiring(x):
    # branch x links t_p to its first slot's input, each output to the next
    # input and the last output to t_f; x = 2 is CBDA: t_p -> C_I,
    # C_O -> B_I, B_O -> D_I, D_O -> A_I, A_O -> t_f
    t = build_switch_process_ket(SIGMA_STAR).reshape([4, 2] + [2] * 9 + [4])
    branch = t[x, ..., x]  # c_p = c_f = x, axes (t_p, parties..., t_f)
    order = SIGMA_STAR.to_strings()[x]
    assert_allclose(branch.reshape(-1), kron_chain(order, LINK, ["t_p"]), atol=1e-12)
    for x2 in range(4):
        if x2 != x:
            assert not np.any(t[x, ..., x2])


@pytest.mark.parametrize("order", ["ABCD", "CBDA", "DACB", "BDAC", "CAB", "BAC", "EBADC"])
def test_definite_order_comb_matches_kron_reference(order):
    psi = random_state(2, np.random.default_rng(11))
    chain = kron_chain(order, psi).reshape(-1, 2)
    for y in range(4):
        expected = np.kron(chain, basis_state(4, y).reshape(4, 1))
        comb = definite_order_process(order, psi, y)
        assert comb.N == len(order) and comb.P == 4
        assert_allclose(comb.factor.reshape(-1, 2), expected, atol=1e-12)


@pytest.mark.parametrize("order, labels", [("ABCE", "ABCD"), ("ABCA", "ABCD"), ("ABD", "ABC"),
                                           ("ABCDEFGHA", "ABCDEFGH"), ("", "")],
                         ids=["ABCE", "ABCA", "ABD", "ABCDEFGHA", "empty"])
def test_definite_order_rejects_non_orderings(order, labels):
    with pytest.raises(ValueError, match=f"'{order}' is not an ordering of {labels}$"):
        definite_order_process(order, basis_state(2, 0), answer_y=0)


@pytest.mark.parametrize("answer_y", [5, 4, -1])
def test_definite_order_rejects_answers_outside_the_readout(answer_y):
    # -1 used to wrap around to the comb for answer 3
    with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
        definite_order_process("ABCD", basis_state(2, 0), answer_y=answer_y)


def test_definite_order_reads_a_boolean_answer_as_its_integer():
    # answer_y=True used to select every readout row: a comb of trace 64
    psi = random_state(2, np.random.default_rng(12))
    comb = definite_order_process("ABCD", psi, answer_y=True)
    assert abs(comb.trace - 16.0) < 1e-12
    assert np.array_equal(comb.factor, definite_order_process("ABCD", psi, 1).factor)


def test_switch_ket_contraction_reproduces_products():
    # contracting the gate Choi vectors against branch x leaves the Choi
    # vector of the ordering product on (t_p, t_f)
    w4 = build_switch_process_ket(SIGMA_STAR)
    dims = [4, 2] + [2] * 9 + [4]
    rng = np.random.default_rng(0)
    orc = random_oracle(rng)
    # the dual of the transposed-projector convention: the bra applied to the
    # party legs carries the unconjugated Choi components
    g = oracle_choi_ket(orc)
    t = w4.reshape(dims)
    for x in range(4):
        branch = t[x, ..., x].reshape(2, 256, 2)  # (t_p, parties, t_f)
        contracted = np.einsum("p,ipf->if", g, branch)  # (t_p, t_f)
        pi = all_products(orc, SIGMA_STAR)[x]
        assert_allclose(contracted.reshape(-1), choi_vector(pi), atol=1e-9)


# ---------------------------------------------------------------------------
# effective process
# ---------------------------------------------------------------------------

def test_effective_ket_from_switch_ket(m4):
    # feeding the uniform control, the target state and the inverse control
    # gate into the ideal wiring must reproduce the direct construction
    rng = np.random.default_rng(1)
    psi = random_state(2, rng)
    w4 = build_switch_process_ket(SIGMA_STAR).reshape([4, 2] + [2] * 8 + [2, 4])
    h = m4.as_gate()
    hinv = m4.as_gate_inverse()
    # contract c_p with H|0>, t_p with the transpose trick (state insertion),
    # and rotate c_f by H^-1
    contracted = np.einsum("c,ct...f,yf->t...y", h[:, 0], w4, hinv)
    contracted = np.einsum("t,t...y->...y", psi, contracted)
    direct = build_effective_ket(psi, m4).reshape([2] * 8 + [2, 4])
    assert_allclose(contracted, direct, atol=1e-10)


def test_effective_process_trace_and_rank(m4, w_eff):
    assert abs(w_eff.trace - 16.0) < 1e-9
    eigs = np.linalg.eigvalsh(w_eff.matrix)
    assert np.sum(eigs > 1e-9) <= 2
    assert eigs.min() > -1e-9


def test_process_factor_validation():
    # the two-dimensional (4**N * P, r) form is refused: its row count alone
    # does not fix N and P (4**3 * 4 == 4**4 * 1)
    for shape in [(1023, 2), (1024,), (1024, 2), (256, 4, 2, 1)]:
        with pytest.raises(ValueError, match=r"is not \(4\*\*N, P, r\)"):
            ProcessMatrix(np.ones(shape))
    bad = np.ones((256, 4, 2), dtype=complex)
    bad[5, 1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ProcessMatrix(bad)


def test_process_spaces_have_declared_dimensions(w_eff):
    # 256 party rows (eight qubits) for each of the P = 4 readout outcomes
    assert w_eff.N == 4 and w_eff.P == 4
    assert w_eff.factor.shape == (256, 4, 2)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_witness_trace_single_component():
    orc = chart_fixture("table1")[0]
    g = witness_operator([(orc, 0, 1.0)])
    assert abs(np.trace(g.matrix()).real - 16.0) < 1e-9


def test_witness_is_psd_and_block_diagonal():
    g = uniform_witness(chart_fixture("table1"))
    mat = g.matrix()
    assert np.linalg.eigvalsh(mat).min() > -1e-10
    blocks = mat.reshape(256, 4, 256, 4)
    for y in range(4):
        for y2 in range(4):
            if y != y2:
                assert np.max(np.abs(blocks[:, y, :, y2])) < 1e-12


def test_witness_weight_validation():
    orc = chart_fixture("table1")[0]
    with pytest.raises(ValueError, match="sum to 1"):
        witness_operator([(orc, 0, 0.5)])
    with pytest.raises(ValueError, match="out of range"):
        witness_operator([(orc, 7, 1.0)])


def test_witness_rejects_non_finite_weights():
    orc = chart_fixture("table1")[0]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="weights must be finite"):
            witness_operator([(orc, 0, bad)])
    with pytest.raises(ValueError, match="weights must be finite"):
        witness_operator([(orc, 0, 1.0), (orc, 1, np.nan)])


@pytest.mark.parametrize("build, message", [
    (lambda orc: uniform_witness([]), "witness needs at least one component"),
    (lambda orc: uniform_witness([orc]), "component outcome must be an integer, not None"),
    (lambda orc: witness_operator([(orc, None, 1.0)]),
     "component outcome must be an integer, not None"),
], ids=["uniform-empty", "uniform-unverified", "operator-none"])
def test_witness_inputs_raise_value_errors(build, message):
    # these raised ZeroDivisionError and TypeError from int(None)
    unverified = OracleSet(chart_fixture("table1")[0].gates)
    with pytest.raises(ValueError, match=message):
        build(unverified)


def _kron_witness(components):
    """Reference dense witness: one kron per component, readout last."""
    d = 4 ** components[0][0].N * 4
    out = np.zeros((d, d), dtype=complex)
    for oracle, y, q in components:
        g = oracle_choi_ket(oracle).conj()
        proj = np.zeros((4, 4))
        proj[y, y] = 1.0
        out += q * np.kron(np.outer(g, g.conj()), proj)
    return out


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_witness_matrix_matches_kron_reference(n, seed):
    rng = np.random.default_rng(seed)
    comps = [(random_oracle(rng), int(rng.integers(0, 4)), q)
             for q in rng.dirichlet(np.ones(n))]
    assert_allclose(witness_operator(comps).matrix(), _kron_witness(comps), atol=1e-12)


def test_witness_matrix_at_two_and_three_gates_matches_kron_reference():
    rng = np.random.default_rng(22)
    for n in (2, 3):
        comps = [(random_oracle(rng, n), int(rng.integers(0, 4)), q)
                 for q in rng.dirichlet(np.ones(3))]
        g = witness_operator(comps)
        assert g.N == n and g.matrix().shape == (4 ** n * 4,) * 2
        assert_allclose(g.matrix(), _kron_witness(comps), atol=1e-12)
        assert abs(np.trace(g.matrix()).real - 2.0 ** n) < 1e-9


def test_witness_gate_counts_must_agree(w_eff):
    four = chart_fixture("table1")[0]
    three = OracleSet(four.gates[:3])
    with pytest.raises(ValueError, match="as many in each"):
        witness_operator([(four, 0, 0.5), (three, 0, 0.5)])
    with pytest.raises(ValueError, match="witness gate count 3 does not match process slot count 4"):
        success_probability(w_eff, witness_operator([(three, 0, 1.0)]))


def test_witness_linearity(w_eff):
    fixtures = chart_fixture("table2")
    values = [success_probability(w_eff, witness_operator([(f, f.claimed_y, 1.0)]))
              for f in fixtures]
    weights = np.array([0.4, 0.3, 0.2, 0.1])
    mixed = witness_operator([(f, f.claimed_y, q) for f, q in zip(fixtures, weights)])
    assert abs(success_probability(w_eff, mixed) - float(weights @ values)) < 1e-10


# ---------------------------------------------------------------------------
# success probabilities
# ---------------------------------------------------------------------------

def test_promise_sets_score_unity(w_eff):
    for fix in chart_fixture("table1") + chart_fixture("table2"):
        g = witness_operator([(fix, fix.claimed_y, 1.0)])
        assert abs(success_probability(w_eff, g) - 1.0) < 1e-8


def test_unity_for_random_target_states(m4):
    rng = np.random.default_rng(2)
    fix = chart_fixture("table2")[0]
    g = witness_operator([(fix, 0, 1.0)])
    for _ in range(10):
        w = build_effective_process(random_state(2, rng), m4)
        assert abs(success_probability(w, g) - 1.0) < 1e-8


def test_fixed_order_process_scores_quarter():
    w_fixed = definite_order_process("ABCD", basis_state(2, 0), answer_y=0)
    g = uniform_witness(chart_fixture("table1"))
    assert abs(success_probability(w_fixed, g) - 0.25) < 1e-10


def test_non_promise_regressions(w_eff, gate_map):
    # [frozen from an independent contraction oracle]
    bad = OracleSet(tuple(gate_map[n] for n in ("Z", "X", "Y", "I")))
    vals = [success_probability(w_eff, witness_operator([(bad, y, 1.0)]))
            for y in range(4)]
    assert_allclose(vals, [0.25, 0.25, 0.25, 0.25], atol=1e-10)
    tilted = OracleSet(tuple(gate_map[n] for n in ("Z", "X", "(Z+X)/sqrt2", "I")))
    vals = [success_probability(w_eff, witness_operator([(tilted, y, 1.0)]))
            for y in range(4)]
    assert_allclose(vals, [0.125, 0.125, 0.125, 0.625], atol=1e-10)


def test_cross_formalism_agreement(w_eff, m4):
    # the witness expectation must equal the algorithm's outcome probability
    # for arbitrary (not only promise-satisfying) oracles
    rng = np.random.default_rng(3)
    for _ in range(6):
        orc = random_oracle(rng)
        dist = run_hadamard_algorithm(orc, SIGMA_STAR, m4,
                                      basis_state(2, 0)).outcome_distribution
        for y in range(4):
            val = success_probability(w_eff, witness_operator([(orc, y, 1.0)]))
            assert abs(val - dist[y]) < 1e-8


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_witness_value_matches_switch_for_random_oracles(m4, seed):
    # Haar-random gates almost never satisfy the promise
    rng = np.random.default_rng(seed)
    psi = random_state(2, rng)
    orc = random_oracle(rng)
    w = build_effective_process(psi, m4)
    dist = run_hadamard_algorithm(orc, SIGMA_STAR, m4, psi).outcome_distribution
    vals = [success_probability(w, witness_operator([(orc, y, 1.0)])) for y in range(4)]
    assert_allclose(vals, dist, atol=1e-10)


@pytest.mark.parametrize("perms", [SIGMA_3, SIGMA_5], ids=["N3", "N5"])
def test_witness_value_matches_switch_at_other_slot_counts(m4, perms):
    # the effective process reads N from the orderings; Tr[G W] must still be
    # the switch's outcome probability, for unit-success and random oracles
    rng = np.random.default_rng(23)
    census, sets = enumerate_promise_sets(gate_set_G(), perms, m4)
    psi = random_state(2, rng)
    w = build_effective_process(psi, m4, perms)
    assert (w.N, w.P) == (perms.N, 4) and abs(w.trace - 2.0 ** perms.N) < 1e-9
    for orc in [random_oracle(rng, perms.N) for _ in range(3)] + list(sets[::97]):
        dist = run_hadamard_algorithm(orc, perms, m4, psi).outcome_distribution
        vals = [success_probability(w, witness_operator([(orc, y, 1.0)])) for y in range(4)]
        assert_allclose(vals, dist, atol=1e-10)


@pytest.mark.parametrize("perms, per_column", [(SIGMA_3, (100, 12, 12, 12)),
                                               (SIGMA_5, (1840, 492, 384, 306))],
                         ids=["N3", "N5"])
def test_every_promise_set_scores_unity_at_other_slot_counts(m4, perms, per_column):
    # a qubit target suffices regardless of N, seen from the process side
    census, sets = enumerate_promise_sets(gate_set_G(), perms, m4)
    assert census.per_column == per_column
    w = build_effective_process(basis_state(2, 0), m4, perms)
    assert abs(w.trace - 2.0 ** perms.N) < 1e-9
    values = [success_probability(w, witness_operator([(s, s.claimed_y, 1.0)])) for s in sets]
    assert np.max(np.abs(np.array(values) - 1.0)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(rank=st.integers(1, 4), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_factored_evaluation_matches_dense(rank, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(1024, rank)) + 1j * rng.normal(size=(1024, rank))
    a /= 4.0 * np.linalg.norm(a)    # Tr W = 1/16 keeps Tr[G W] within [0, 1]
    w = ProcessMatrix(a.reshape(256, 4, rank))
    comps = [(random_oracle(rng), int(rng.integers(0, 4)), q)
             for q in rng.dirichlet(np.ones(n))]
    g = WitnessOperator(comps)
    dense_g = _kron_witness(comps)
    assert_allclose(g.matrix(), dense_g, atol=1e-12)
    dense = float(np.real(np.sum(dense_g * w.matrix.T)))
    assert abs(success_probability(w, g) - dense) < 1e-12

    si = superinstrument(w)
    m = w.matrix.reshape(256, 4, 256, 4)
    for y in range(4):
        assert_allclose(si[y], m[:, y, :, y], atol=1e-14)


def test_structured_evaluation_matches_dense_trace(w_eff):
    rng = np.random.default_rng(4)
    orc = random_oracle(rng)
    g = witness_operator([(orc, 2, 0.7), (chart_fixture("table1")[1], 1, 0.3)])
    dense = float(np.real(np.einsum("ab,ba->", g.matrix(), w_eff.matrix)))
    assert abs(success_probability(w_eff, g) - dense) < 1e-9


# ---------------------------------------------------------------------------
# superinstrument reduction
# ---------------------------------------------------------------------------

def test_superinstrument_parts_sum_to_total_trace(w_eff):
    si = superinstrument(w_eff)
    assert si.shape == (4, 256, 256) and not si.flags.writeable
    assert abs(sum(np.trace(p).real for p in si) - w_eff.trace) < 1e-9


def test_superinstrument_extracts_diagonal_blocks():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(1024, 16)) + 1j * rng.normal(size=(1024, 16))
    rho = a @ a.conj().T
    si = superinstrument(ProcessMatrix(a.reshape(256, 4, 16)))
    arr = rho.reshape(256, 4, 256, 4)
    for y in range(4):
        assert_allclose(si[y], arr[:, y, :, y], atol=1e-12)


def test_superinstrument_consistency_on_random_process():
    # blockwise evaluation equals the dense trace for a random PSD process
    rng = np.random.default_rng(6)
    a = rng.normal(size=(1024, 64)) + 1j * rng.normal(size=(1024, 64))
    a *= 4.0 / np.linalg.norm(a)
    w = ProcessMatrix(a.reshape(256, 4, 64))
    orc = random_oracle(rng)
    g = witness_operator([(orc, 1, 1.0)])
    dense = float(np.real(np.einsum("ab,ba->", g.matrix(), w.matrix)))
    blockwise = sum(
        float(np.real(np.einsum("ab,ba->", gy, wy)))
        for gy, wy in zip(_witness_blocks(g), superinstrument(w))
    )
    assert abs(dense - blockwise) < 1e-9
    assert abs(success_probability(w, g) - dense) < 1e-9


def _witness_blocks(g: WitnessOperator):
    mat = g.matrix().reshape(256, 4, 256, 4)
    return [mat[:, y, :, y] for y in range(4)]


def test_process_rows_must_be_whole_readout_blocks():
    # 4**N party rows per readout outcome, 1 <= N <= 8: anything else has no
    # party layout; an empty readout or factor rank has no process
    for shape in [(0, 4, 2), (1, 4, 2), (255, 4, 2), (128, 4, 2), (4 ** 9, 1, 1),
                  (256, 0, 2), (256, 4, 0)]:
        with pytest.raises(ValueError, match=r"is not \(4\*\*N, P, r\)"):
            ProcessMatrix(np.ones(shape))
    w8 = ProcessMatrix(np.eye(256 * 8, 3).reshape(256, 8, 3))
    assert (w8.N, w8.P) == (4, 8) and superinstrument(w8).shape == (8, 256, 256)
    # the same row count read as three slots with a 16-outcome readout
    w16 = ProcessMatrix(np.eye(256 * 8, 3).reshape(64, 32, 3))
    assert (w16.N, w16.P) == (3, 32) and superinstrument(w16).shape == (32, 64, 64)


def test_dense_forms_refuse_more_than_2048_rows(m4):
    # at N = 5 each dense form would hold 4096**2 complex entries (268 MB);
    # the refusal comes before any allocation
    w = build_effective_process(basis_state(2, 0), m4, SIGMA_5)
    g = uniform_witness([OracleSet(random_oracle(np.random.default_rng(8), 5).gates, claimed_y=0)])
    tracemalloc.start()
    try:
        for build in (lambda: w.matrix, g.matrix):
            with pytest.raises(ValueError, match=r"dense \(4096, 4096\) operator exceeds 2048 rows"):
                build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert success_probability(w, g) <= 1.0   # the factored forms still evaluate


# ---------------------------------------------------------------------------
# dense builds
# ---------------------------------------------------------------------------

def _factor_with_zero_rows():
    """A random (256, 8, 3) factor, about half of its rows zero, scaled to trace 16."""
    rng = np.random.default_rng(18)
    f = rng.normal(size=(2048, 3)) + 1j * rng.normal(size=(2048, 3))
    f[rng.random(2048) < 0.5] = 0.0
    return (f * (4.0 / np.linalg.norm(f))).reshape(256, 8, 3)


def test_comb_matrices_are_bit_equal_to_the_factor_product():
    # one nonzero per comb row, so every entry is a single product
    for comb in _combs(15)[1].values():
        f = comb.factor.reshape(-1, 2)
        assert np.array_equal(comb.matrix, f @ f.conj().T)


def test_dense_process_matches_the_factor_product(m4):
    rng = np.random.default_rng(17)
    factors = [build_effective_process(random_state(2, rng), m4).factor for _ in range(10)]
    for f3 in factors + [_factor_with_zero_rows()]:
        mat = ProcessMatrix(f3).matrix
        f = f3.reshape(-1, f3.shape[2])
        assert_allclose(mat, f @ f.conj().T, rtol=0, atol=1e-15)
        assert np.array_equal(mat, mat.conj().T)
        assert not mat.flags.writeable
        zero = ~f.any(axis=1)
        assert not mat[zero].any() and not mat[:, zero].any()


def _full_row_witness(g):
    """Reference dense witness: (b * q) @ b^dagger per readout column, b the
    column's Choi kets on all 256 rows."""
    out = np.zeros((256, 4, 256, 4), dtype=complex)
    for y in range(4):
        comps = [(o, q) for o, yk, q in g.components if yk == y]
        if comps:
            b = np.array([oracle_choi_ket(o) for o, _ in comps]).conj().T
            q = np.array([q for _, q in comps])
            out[:, y, :, y] = (b * q) @ b.conj().T
    return out.reshape(1024, 1024)


def test_witness_matrix_is_bit_equal_to_the_full_row_product(promise_sets):
    rng = np.random.default_rng(19)
    haar = [(random_oracle(rng), int(rng.integers(0, 4)), 1 / 8) for _ in range(8)]
    witnesses = [uniform_witness(chart_fixture(name)) for name in ("thirty", "table1", "table2")]
    witnesses += [uniform_witness(promise_sets[1]), witness_operator(haar)]
    assert len(promise_sets[1]) == 460
    for g in witnesses:
        assert np.array_equal(g.matrix(), _full_row_witness(g))


def test_superinstrument_matches_the_block_products(m4):
    rng = np.random.default_rng(20)
    for f in (build_effective_process(random_state(2, rng), m4).factor, _factor_with_zero_rows()):
        w = ProcessMatrix(f)
        blocks = f.swapaxes(0, 1)
        assert_allclose(superinstrument(w), [b @ b.conj().T for b in blocks], rtol=0, atol=1e-15)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="a BLAS worker thread needs a second CPU")
def test_dense_builds_leave_no_blas_thread_spinning(m4):
    # a threaded BLAS product leaves an idle OpenBLAS worker busy-waiting for
    # about 130 ms, which shows as process CPU time while the caller sleeps
    w = build_effective_process(basis_state(2, 0), m4)
    builds = {
        "comb": lambda: definite_order_process("ABCD", basis_state(2, 0), 1).matrix,
        "effective process": lambda: build_effective_process(basis_state(2, 0), m4).matrix,
        "thirty witness": lambda: uniform_witness(chart_fixture("thirty")).matrix(),
        "superinstrument": lambda: superinstrument(w),
    }
    time.sleep(0.3)   # a worker woken by an earlier test goes idle first
    for name, build in builds.items():
        build()
        start = time.process_time()
        time.sleep(0.2)
        assert time.process_time() - start < 0.02, name


# ---------------------------------------------------------------------------
# decomposition verifier
# ---------------------------------------------------------------------------

def _zero_parts(labels="ABCD"):
    zero = np.zeros((4 ** len(labels) * 4,) * 2, dtype=complex)
    return {key: zero for key in itertools.permutations(labels)}


def test_definite_order_comb_passes():
    parts = _zero_parts()
    comb = definite_order_process("ABCD", basis_state(2, 0), answer_y=0)
    parts[("A", "B", "C", "D")] = comb.matrix
    report = verify_ccgo_decomposition(parts)
    assert report.passed, [c.name for c in report.failures()]
    assert report.normalized
    assert abs(report.trace - 16.0) < 1e-9


def test_all_orderings_filled_passes():
    parts = {}
    for key in itertools.permutations("ABCD"):
        comb = definite_order_process("".join(key), basis_state(2, 0), answer_y=0)
        parts[key] = comb.matrix / 24.0
    report = verify_ccgo_decomposition(parts)
    assert report.passed
    assert report.normalized


def test_controlled_order_process_fails_the_constraints(m4):
    for perms in (SIGMA_STAR, SIGMA_3):
        slots = "ABCD"[:perms.N]
        parts = _zero_parts(slots)
        parts[tuple(slots)] = build_effective_process(basis_state(2, 0), m4, perms).matrix
        report = verify_ccgo_decomposition(parts)
        assert report.normalized and not report.passed
        failed = [c.name for c in report.failures()]
        assert any(name.startswith(f"reduced[{slots}]") for name in failed)


def test_weighted_combs_pass_at_three_slots():
    rng = np.random.default_rng(21)
    orderings = list(itertools.permutations("ABC"))
    weights, target = rng.dirichlet(np.ones(6)), random_state(2, rng)
    parts = {key: q * definite_order_process("".join(key), target, int(y)).matrix
             for key, q, y in zip(orderings, weights, rng.integers(0, 4, size=6))}
    report = verify_ccgo_decomposition(parts)
    # 6 psd + 6 + 6 + 3 product-form constraints
    assert len(report.checks) == 21
    assert report.passed, [c.name for c in report.failures()]
    assert report.normalized and abs(report.trace - 8.0) < 1e-9


def test_verifier_reads_slot_count_and_readout_from_its_inputs():
    parts = _zero_parts("ABC")
    del parts[("A", "B", "C")]
    with pytest.raises(ValueError, match="need exactly the 6 orderings of ABC as keys"):
        verify_ccgo_decomposition(parts)
    with pytest.raises(ValueError, match="need exactly the 24 orderings of ABCD as keys"):
        verify_ccgo_decomposition({**_zero_parts(), ("A", "B", "C"): np.zeros((256, 256))})
    odd = {key: np.zeros((1000, 1000)) for key in itertools.permutations("ABC")}
    with pytest.raises(ValueError, match="part dimension 1000 is not 4\\*\\*3 party rows"):
        verify_ccgo_decomposition(odd)
    # 1024 rows over three slots: a 16-outcome readout
    wide = {key: np.zeros((1024, 1024)) for key in itertools.permutations("ABC")}
    assert len(verify_ccgo_decomposition(wide).checks) == 21
    mixed = {**_zero_parts("ABC"), ("C", "B", "A"): np.zeros((1024, 1024))}
    with pytest.raises(ValueError, match=r"has shape \(1024, 1024\), expected \(256, 256\)"):
        verify_ccgo_decomposition(mixed)


def test_zero_parts_pass_vacuously_but_flagged():
    report = verify_ccgo_decomposition(_zero_parts())
    assert report.passed
    assert not report.normalized
    assert report.trace == 0.0


def _psd_check(report, key="ABCD"):
    return next(c for c in report.checks if c.name == f"psd[{key}]")


def test_verifier_support_includes_off_diagonal_entries():
    # zero diagonal: a support taken from the diagonal would be empty
    parts = _zero_parts()
    part = np.zeros((1024, 1024), dtype=complex)
    part[3, 700] = part[700, 3] = 1.0
    parts[("A", "B", "C", "D")] = part
    check = _psd_check(verify_ccgo_decomposition(parts))
    assert not check.passed
    assert check.residual == pytest.approx(1.0, abs=1e-12)

    part = np.zeros((1024, 1024), dtype=complex)
    part[12, 900] = 0.3 - 0.4j
    parts[("A", "B", "C", "D")] = part
    check = _psd_check(verify_ccgo_decomposition(parts))
    assert not check.passed
    assert check.residual == pytest.approx(0.5, abs=1e-12)


def test_verifier_support_block_matches_full_spectrum():
    # a comb with a negative direction on a few rows of its support: the
    # defect from the support block equals the one from the full matrix
    comb = definite_order_process("BADC", random_state(2, np.random.default_rng(9)),
                                  answer_y=2).matrix.copy()
    rows = np.flatnonzero(np.abs(comb).sum(axis=1))[:5]
    comb[rows, rows] -= 0.05
    parts = _zero_parts()
    parts[("B", "A", "D", "C")] = comb
    check = _psd_check(verify_ccgo_decomposition(parts), "BADC")
    expected = -np.linalg.eigvalsh(comb).min()
    assert not check.passed
    assert check.residual == pytest.approx(expected, abs=1e-12)


def test_verifier_full_support_psd_parts_pass():
    rng = np.random.default_rng(10)
    parts = _zero_parts()
    for key in [("A", "B", "C", "D"), ("D", "C", "B", "A"), ("C", "A", "D", "B")]:
        a = rng.normal(size=(1024, 6)) + 1j * rng.normal(size=(1024, 6))
        parts[key] = a @ a.conj().T
        assert np.all(parts[key] != 0)
    report = verify_ccgo_decomposition(parts)
    for key in ["ABCD", "DCBA", "CADB"]:
        assert _psd_check(report, key).passed


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_verifier_rejects_non_finite_parts(bad):
    # one NaN used to fail only psd[ABCD]: the level checks dropped it
    parts = _zero_parts()
    comb = definite_order_process("ABCD", basis_state(2, 0), answer_y=0).matrix.copy()
    comb[5, 9] = bad
    parts[("A", "B", "C", "D")] = comb
    with pytest.raises(ValueError, match="part ABCD has non-finite entries"):
        verify_ccgo_decomposition(parts)


ORDERINGS = list(itertools.permutations("ABCD"))


def _combs(seed):
    """Dirichlet weights and the 24 definite-order combs, built as the
    benchmark builds them: a random target and a random answer per ordering."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(len(ORDERINGS)))
    answers = rng.integers(0, 4, size=len(ORDERINGS))
    target = random_state(2, rng)
    return weights, {key: definite_order_process("".join(key), target, int(y))
                     for key, y in zip(ORDERINGS, answers)}


def _weighted_combs(seed):
    """The 24 Dirichlet-weighted definite-order combs of ``_combs``, dense."""
    weights, combs = _combs(seed)
    return {key: w * combs[key].matrix for key, w in zip(ORDERINGS, weights)}


def _mixed_parts(parts):
    """Three full-support random PSD parts, one comb shifted by -0.01 on four
    support diagonal entries and one with a 1e-6i non-Hermitian entry."""
    rng = np.random.default_rng(16)
    parts = dict(parts)
    for key in ORDERINGS[::8]:
        a = rng.normal(size=(1024, 3)) + 1j * rng.normal(size=(1024, 3))
        parts[key] = (a @ a.conj().T) / 3000
    shifted = parts[ORDERINGS[5]].copy()
    rows = np.flatnonzero(np.abs(shifted).sum(axis=1))[:4]
    shifted[rows, rows] -= 0.01
    parts[ORDERINGS[5]] = shifted
    skewed = parts[ORDERINGS[11]].copy()
    i, j = np.flatnonzero(np.abs(skewed).sum(axis=1))[:2]
    skewed[i, j] += 1e-6j
    parts[ORDERINGS[11]] = skewed
    return parts


def _report_digest(report):
    h = hashlib.sha256()
    for c in report.checks:
        h.update(f"{c.name}|{c.passed}|{c.residual.hex()}\n".encode())
    h.update(f"{report.trace.hex()}|{report.normalized}".encode())
    return h.hexdigest()


# Reports of the pair verifier, which the same values in every layout must
# reproduce bit for bit.  The PSD defects come from LAPACK, so another numpy
# build may need the digests captured again from that code.  The mixed parts'
# defects come from eigvalsh on 1024 rows, whose last bits differ between one
# BLAS thread and several; MIXED_DIGEST holds the bits of two threads, and
# ``_mixed_digest`` computes them under two threads on any number of CPUs.
COMBS_DIGEST = "03c050558710366b5c24ffe376b3f8474a755ab76a433033c505a889e5c2b82b"
MIXED_DIGEST = "117f57e65f330f5f6c1fbdfb17b41cdf2fa60e718fe08af600d47603a5e651cb"
# The child sets two OpenBLAS threads through the library itself, since
# OPENBLAS_NUM_THREADS is capped at the CPUs present, and prints the count.
MIXED_SCRIPT = """
import ctypes, sys
from pathlib import Path
import numpy as np
for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
    lib = ctypes.CDLL(str(path))
    for name in ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}"):
        if hasattr(lib, name.format("set_num_threads")):
            set_threads = getattr(lib, name.format("set_num_threads"))
            get_threads = getattr(lib, name.format("get_num_threads"))
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            set_threads(2)
            print(get_threads())
            break
sys.path.insert(0, "tests")
from test_processes import _mixed_parts, _report_digest, _weighted_combs
from switchlab import verify_ccgo_decomposition
print(_report_digest(verify_ccgo_decomposition(_mixed_parts(_weighted_combs(15)))))
"""


def _mixed_digest():
    """The digest of the mixed parts' report from a fresh interpreter whose
    OpenBLAS runs two threads, on any number of CPUs; a short thread timeout
    keeps two threads on one CPU from spinning against each other."""
    root = Path(__file__).resolve().parent.parent
    path = os.environ.get("PYTHONPATH")
    src = str(root / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OPENBLAS_THREAD_TIMEOUT="4",
               PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, "-c", MIXED_SCRIPT], capture_output=True,
                          text=True, env=env, cwd=root, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *threads, digest = proc.stdout.split()
    assert threads in ([], ["2"])
    return digest


def _negative_zeros(m):
    m = m.copy()
    flat = m.view(np.float64)
    flat[flat == 0] = -0.0
    return m


def _strided(m):
    wide = np.zeros((m.shape[0], 2 * m.shape[1]), dtype=m.dtype)
    wide[:, ::2] = m
    return wide[:, ::2]   # neither C- nor F-contiguous


def test_verifier_report_is_pinned_bit_for_bit():
    combs = _weighted_combs(15)
    report = verify_ccgo_decomposition(combs)
    assert report.passed and report.normalized and len(report.checks) == 88
    assert _report_digest(report) == COMBS_DIGEST
    # the same values in other layouts, including one a float64 view refuses
    strided = _strided(combs[ORDERINGS[0]])
    assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
    with pytest.raises(ValueError):
        strided.view(np.float64)
    for layout in (lambda m: m.conj().T, np.asfortranarray, _strided, _negative_zeros):
        parts = dict(combs)
        for key in ORDERINGS[::6]:
            parts[key] = layout(combs[key])
            assert np.array_equal(parts[key], combs[key])
        assert _report_digest(verify_ccgo_decomposition(parts)) == COMBS_DIGEST
    assert _mixed_digest() == MIXED_DIGEST


def test_support_row_residual_is_bit_identical_on_every_qubit():
    # a readout-traced comb as a pair on its nonzero rows gives the residual
    # of the same pair on all 256 rows bit for bit, on every qubit: the other
    # rows are zero and add no term
    nonzero = 0
    for mat in list(_weighted_combs(15).values()) + [np.zeros((1024, 1024), dtype=complex)]:
        t = np.trace(mat.reshape(256, 4, 256, 4), axis1=1, axis2=3)
        rows = np.flatnonzero(np.abs(t).sum(axis=0) + np.abs(t).sum(axis=1))
        ab = np.array([t[:, rows], np.eye(256)[:, rows]])   # t = a b^dagger
        for qubit in range(8):
            full, _ = _slot_step([(np.arange(256), ab)], 2 ** qubit)
            assert _slot_step([(rows, ab[:, rows])], 2 ** qubit)[0].hex() == full.hex()
            nonzero += full > 0
    assert nonzero > 0
    assert _slot_step([(np.array([], dtype=int), np.zeros((2, 0, 0)))], 4)[0] == 0.0


def test_factor_and_dense_parts_give_the_same_report():
    weights, combs = _combs(15)
    dense = verify_ccgo_decomposition({key: w * combs[key].matrix
                                       for key, w in zip(ORDERINGS, weights)})
    factors = {key: ProcessMatrix(w ** 0.5 * combs[key].factor)
               for key, w in zip(ORDERINGS, weights)}
    both = dict(factors)   # every other part dense
    for key, w in zip(ORDERINGS[::2], weights[::2]):
        both[key] = w * combs[key].matrix
    for report in (verify_ccgo_decomposition(factors), verify_ccgo_decomposition(both)):
        assert [(c.name, c.passed) for c in report.checks] == \
            [(c.name, c.passed) for c in dense.checks]
        assert max(abs(c.residual - r.residual)
                   for c, r in zip(report.checks, dense.checks)) <= 1e-15
        assert abs(report.trace - dense.trace) <= 1e-15 * 16 and report.normalized


def test_verifier_reads_real_parts_as_complex():
    real, as_complex = _weighted_combs(17), {}
    for key in ORDERINGS[::6]:
        real[key] = real[key].real.copy()
        as_complex[key] = real[key].astype(complex)
    report = verify_ccgo_decomposition(real)
    assert _report_digest(report) == _report_digest(
        verify_ccgo_decomposition({**real, **as_complex}))


def test_verifier_rejects_wrong_keys():
    parts = _zero_parts()
    del parts[("A", "B", "C", "D")]
    with pytest.raises(ValueError, match="24 orderings"):
        verify_ccgo_decomposition(parts)


def test_verifier_counts_constraints():
    report = verify_ccgo_decomposition(_zero_parts())
    # 24 psd + 24 + 24 + 12 + 4 product-form constraints
    assert len(report.checks) == 88


def _dense_partial_trace(mat, labels, traced):
    """Reference partial trace of ``mat`` over the qubits named in ``traced``;
    ``labels`` names its qubits in order.  Returns the kept labels too."""
    k = len(labels)
    keep = [j for j, lab in enumerate(labels) if lab not in traced]
    col = [j if labels[j] in traced else k + j for j in range(k)]
    out = np.einsum(mat.reshape([2] * 2 * k), list(range(k)) + col,
                    keep + [k + j for j in keep])
    return out.reshape(2 ** len(keep), 2 ** len(keep)), [labels[j] for j in keep]


def _dense_identity_residual(mat, labels, out):
    """max |mat - (Tr_out mat)/2 (x) 1_out|, the identity put back in place."""
    reduced, kept = _dense_partial_trace(mat, labels, {out})
    k = len(labels)
    back = [(kept + [out]).index(lab) for lab in labels]
    expanded = np.kron(reduced / 2, np.eye(2)).reshape([2] * 2 * k)
    expanded = expanded.transpose(back + [k + j for j in back]).reshape(mat.shape)
    return float(np.max(np.abs(mat - expanded)))


@settings(max_examples=6, deadline=None)
@given(count=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_verifier_level_residuals_match_dense_reference(count, seed):
    rng = np.random.default_rng(seed)
    for slots in ("ABC", "ABCD", "ABCDE"):
        _check_level_residuals(slots, count, rng)


def _check_level_residuals(slots, count, rng):
    """Random rank-3 PSD parts on ``count`` orderings of ``slots``, zero parts
    elsewhere, as factors and (up to four slots) dense: every level residual
    within 1e-12 of a dense reference built on the readout-traced parts."""
    orderings = list(itertools.permutations(slots))
    rows = 4 ** len(slots)
    factors = {}
    for idx in rng.choice(len(orderings), size=count, replace=False):
        a = rng.normal(size=(rows * 4, 3)) + 1j * rng.normal(size=(rows * 4, 3))
        a /= np.linalg.norm(a)
        factors[orderings[idx]] = (a * rng.uniform(0.1, 1.0, size=3) ** 0.5).reshape(rows, 4, 3)

    # readout traced: the sum over c of F_c F_c^dagger; zero parts stay out
    reduced = {key: np.einsum("ick,jck->ij", f, f.conj()) for key, f in factors.items()}
    expected = {}
    for level in range(len(slots), 0, -1):
        shorter = {}
        for prefix in itertools.permutations(slots, level):
            last = prefix[-1]
            name = f"reduced[{''.join(prefix)}] = ~W (x) 1[{last}_O]"
            expected[name] = 0.0
            if prefix in reduced:
                labels = [f"{s}_{io}" for s in sorted(prefix) for io in "IO"]
                expected[name] = _dense_identity_residual(reduced[prefix], labels, f"{last}_O")
                tr, _ = _dense_partial_trace(reduced[prefix], labels, {f"{last}_I", f"{last}_O"})
                shorter[prefix[:-1]] = shorter.get(prefix[:-1], 0) + tr
        reduced = shorter

    zero = ProcessMatrix(np.zeros((rows, 4, 1)))
    forms = [{key: ProcessMatrix(factors[key]) if key in factors else zero for key in orderings}]
    if len(slots) <= 4:   # a dense five-slot part would take 4096 rows
        flat = {key: f.reshape(rows * 4, 3) for key, f in factors.items()}
        forms.append({**_zero_parts(slots), **{key: f @ f.conj().T for key, f in flat.items()}})
    for parts in forms:
        report = verify_ccgo_decomposition(parts)
        got = {c.name: c.residual for c in report.checks if c.name.startswith("reduced")}
        assert list(got) == list(expected)
        for name, value in expected.items():
            assert abs(got[name] - value) <= 1e-12, name
