import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from switchlab import (LabeledSpace, OracleSet, SIGMA_STAR, all_products,
                       basis_state, build_effective_ket,
                       build_effective_process, build_switch_process_ket,
                       chart_fixture, choi_vector, definite_order_process,
                       oracle_choi_ket, random_state, run_hadamard_algorithm,
                       success_probability, superinstrument, uniform_witness,
                       verify_ccgo_decomposition, witness_operator)
from switchlab.gates import NamedGate
from switchlab.linalg import random_unitary, reorder_matrix, reorder_vector
from switchlab.processes import (PARTY_LABELS, ProcessMatrix, WitnessOperator,
                                 effective_spaces, party_spaces,
                                 switch_process_spaces)


def random_oracle(rng):
    return OracleSet(tuple(NamedGate(f"U{i}", random_unitary(2, rng)) for i in range(4)))


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


def test_switch_ket_third_branch_wiring():
    # ordering x=2 is CBDA: t_p -> C_I, C_O -> B_I, B_O -> D_I, D_O -> A_I, A_O -> t_f
    w4 = build_switch_process_ket(SIGMA_STAR)
    spaces = switch_process_spaces(4)
    dims = [s.dim for s in spaces]
    t = w4.reshape(dims)
    branch = t[2, ..., 2]  # c_p = c_f = 2, axes (t_p, parties..., t_f)
    labels = ["t_p"] + list(PARTY_LABELS) + ["t_f"]
    link = np.array([1, 0, 0, 1], dtype=complex)
    expected = np.ones((1,), dtype=complex)
    chain = ["t_p", "C_I", "C_O", "B_I", "B_O", "D_I", "D_O", "A_I", "A_O", "t_f"]
    for _ in range(5):
        expected = np.kron(expected, link)
    expected_t = reorder_vector(expected, [2] * 10,
                                [chain.index(lab) for lab in labels])
    assert_allclose(branch.reshape(-1), expected_t, atol=1e-12)


def test_switch_ket_contraction_reproduces_products():
    # contracting the gate Choi vectors against branch x leaves the Choi
    # vector of the ordering product on (t_p, t_f)
    w4 = build_switch_process_ket(SIGMA_STAR)
    spaces = switch_process_spaces(4)
    dims = [s.dim for s in spaces]
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
    with pytest.raises(ValueError, match="does not match spaces"):
        ProcessMatrix(effective_spaces(4), np.ones((1023, 2)))
    with pytest.raises(ValueError, match="does not match spaces"):
        ProcessMatrix(effective_spaces(4), np.ones(1024))
    bad = np.ones((1024, 2), dtype=complex)
    bad[5, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ProcessMatrix(effective_spaces(4), bad)


def test_process_spaces_have_declared_dimensions(w_eff):
    assert [s.label for s in w_eff.spaces] == list(PARTY_LABELS) + ["c"]
    assert all(s.dim == 2 for s in w_eff.spaces[:-1])
    assert w_eff.spaces[-1].dim == 4


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


def _kron_witness(components):
    """Reference dense witness: one kron per component, readout last."""
    out = np.zeros((1024, 1024), dtype=complex)
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


@settings(max_examples=25, deadline=None)
@given(rank=st.integers(1, 4), c_at=st.integers(0, 8), n=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_factored_evaluation_matches_dense(rank, c_at, n, seed):
    # c_at is the position of the readout space among the nine
    rng = np.random.default_rng(seed)
    parties = party_spaces()
    spaces = parties[:c_at] + [LabeledSpace("c", 4)] + parties[c_at:]
    a = rng.normal(size=(1024, rank)) + 1j * rng.normal(size=(1024, rank))
    a /= 4.0 * np.linalg.norm(a)    # Tr W = 1/16 keeps Tr[G W] within [0, 1]
    w = ProcessMatrix(spaces, a)
    # WitnessOperator validates outcomes against the last space's dimension
    comps = [(random_oracle(rng), int(rng.integers(0, spaces[-1].dim)), q)
             for q in rng.dirichlet(np.ones(n))]
    g = WitnessOperator(spaces, comps)
    order = list(range(c_at)) + [8] + list(range(c_at, 8))
    dense_g = reorder_matrix(_kron_witness(comps), [2] * 8 + [4], order)
    dense = float(np.real(np.sum(dense_g * w.matrix.T)))
    assert abs(success_probability(w, g) - dense) < 1e-12

    si = superinstrument(w)
    assert si.spaces == tuple(parties)
    m = w.matrix.reshape([s.dim for s in spaces] * 2)
    for y in range(4):
        block = np.take(np.take(m, y, axis=9 + c_at), y, axis=c_at)
        assert_allclose(si.parts[y], block.reshape(256, 256), atol=1e-14)


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
    assert len(si.parts) == 4
    assert all(p.shape == (256, 256) for p in si.parts)
    assert abs(si.total_trace - w_eff.trace) < 1e-9


def test_superinstrument_extracts_diagonal_blocks():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = a @ a.conj().T
    spaces = [LabeledSpace("A_I", 2), LabeledSpace("A_O", 2), LabeledSpace("c", 4)]
    w = ProcessMatrix(spaces, a)
    si = superinstrument(w)
    arr = rho.reshape(4, 4, 4, 4)
    for y in range(4):
        assert_allclose(si.parts[y], arr[:, y, :, y])


def test_superinstrument_consistency_on_random_process():
    # blockwise evaluation equals the dense trace for a random PSD process
    rng = np.random.default_rng(6)
    a = rng.normal(size=(1024, 64)) + 1j * rng.normal(size=(1024, 64))
    a *= 4.0 / np.linalg.norm(a)
    w = ProcessMatrix(effective_spaces(4), a)
    orc = random_oracle(rng)
    g = witness_operator([(orc, 1, 1.0)])
    dense = float(np.real(np.einsum("ab,ba->", g.matrix(), w.matrix)))
    blockwise = sum(
        float(np.real(np.einsum("ab,ba->", gy, wy)))
        for gy, wy in zip(_witness_blocks(g), superinstrument(w).parts)
    )
    assert abs(dense - blockwise) < 1e-9
    assert abs(success_probability(w, g) - dense) < 1e-9


def _witness_blocks(g: WitnessOperator):
    mat = g.matrix().reshape(256, 4, 256, 4)
    return [mat[:, y, :, y] for y in range(4)]


def test_superinstrument_requires_readout_space():
    w = ProcessMatrix(party_spaces(), np.eye(256))
    with pytest.raises(ValueError, match="readout"):
        superinstrument(w)


# ---------------------------------------------------------------------------
# decomposition verifier
# ---------------------------------------------------------------------------

def _zero_parts():
    zero = np.zeros((1024, 1024), dtype=complex)
    return {key: zero for key in itertools.permutations("ABCD")}


def test_definite_order_comb_passes():
    parts = _zero_parts()
    comb = definite_order_process("ABCD", basis_state(2, 0), answer_y=0)
    parts[("A", "B", "C", "D")] = comb.matrix
    report = verify_ccgo_decomposition(parts, tolerance=1e-9)
    assert report.passed, [c.name for c in report.failures()]
    assert report.normalized
    assert abs(report.trace - 16.0) < 1e-9


def test_all_orderings_filled_passes():
    parts = {}
    for key in itertools.permutations("ABCD"):
        comb = definite_order_process("".join(key), basis_state(2, 0), answer_y=0)
        parts[key] = comb.matrix / 24.0
    report = verify_ccgo_decomposition(parts, tolerance=1e-9)
    assert report.passed
    assert report.normalized


def test_controlled_order_process_fails_the_constraints(m4):
    parts = _zero_parts()
    parts[("A", "B", "C", "D")] = build_effective_process(basis_state(2, 0), m4).matrix
    report = verify_ccgo_decomposition(parts, tolerance=1e-9)
    assert not report.passed
    failed = [c.name for c in report.failures()]
    assert any(name.startswith("reduced[ABCD]") for name in failed)


def test_zero_parts_pass_vacuously_but_flagged():
    report = verify_ccgo_decomposition(_zero_parts(), tolerance=1e-9)
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
    check = _psd_check(verify_ccgo_decomposition(parts, tolerance=1e-9))
    assert not check.passed
    assert check.residual == pytest.approx(1.0, abs=1e-12)

    part = np.zeros((1024, 1024), dtype=complex)
    part[12, 900] = 0.3 - 0.4j
    parts[("A", "B", "C", "D")] = part
    check = _psd_check(verify_ccgo_decomposition(parts, tolerance=1e-9))
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
    check = _psd_check(verify_ccgo_decomposition(parts, tolerance=1e-9), "BADC")
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
    report = verify_ccgo_decomposition(parts, tolerance=1e-9)
    for key in ["ABCD", "DCBA", "CADB"]:
        assert _psd_check(report, key).passed


def test_verifier_rejects_wrong_keys():
    parts = _zero_parts()
    del parts[("A", "B", "C", "D")]
    with pytest.raises(ValueError, match="24 orderings"):
        verify_ccgo_decomposition(parts)


def test_verifier_counts_constraints():
    report = verify_ccgo_decomposition(_zero_parts())
    # 24 psd + 24 + 24 + 12 + 4 product-form constraints
    assert len(report.checks) == 88
