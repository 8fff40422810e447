import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from switchlab import (OracleSet, PermutationSet, SIGMA_STAR, all_products,
                       ancilla_factor, apply_n_switch, attack_combined,
                       attack_table1, attack_table2, basis_state,
                       build_fixed_circuit, chart_fixture, embed_sequence,
                       kron_all, pauli, random_state, scs,
                       simulate_fixed_circuit, switch_equivalence_fidelity)
from switchlab.fixed_order import FixedOrderCircuit, _check_circuit, _fidelities, _wire_states
from switchlab.gates import NamedGate
from switchlab.linalg import FIDELITY_FLOOR, InvariantViolation, random_unitary


@pytest.fixture(scope="module")
def star_circuit():
    return build_fixed_circuit(scs(SIGMA_STAR), SIGMA_STAR)


@pytest.fixture(scope="module")
def nine_letter_circuit():
    return build_fixed_circuit(embed_sequence("ACBADACDB", SIGMA_STAR), SIGMA_STAR)


def random_oracle(rng, n=4, d=2):
    return OracleSet(tuple(NamedGate(f"U{i}", random_unitary(d, rng)) for i in range(n)))


def random_orderings(rng, n, p):
    """The identity and up to p - 1 further distinct orderings of n labels."""
    rows = [tuple(range(n))]
    while len(rows) < min(p, math.factorial(n)):
        row = tuple(int(j) for j in rng.permutation(n))
        if row not in rows:
            rows.append(row)
    return PermutationSet(rows)


def broken_circuit(circuit, step, branch):
    """The circuit with one usage entry flipped, built without the plan check."""
    usage = [list(row) for row in circuit.usage]
    usage[step][branch] = not usage[step][branch]
    return FixedOrderCircuit(circuit.supersequence, circuit.symbols,
                             tuple(map(tuple, usage)), circuit.perms)


# ---------------------------------------------------------------------------
# circuit construction
# ---------------------------------------------------------------------------

def test_nine_query_circuit(star_circuit, nine_letter_circuit):
    assert star_circuit.query_count == 9
    assert nine_letter_circuit.query_count == 9
    assert nine_letter_circuit.supersequence == "ACBADACDB"


def test_single_ordering_all_target():
    perms = PermutationSet.from_strings(["ABCD"])
    circuit = build_fixed_circuit(scs(perms), perms)
    assert circuit.query_count == 4
    assert all(circuit.usage[s][0] for s in range(4))


def test_pair_has_one_idle_step_per_branch():
    perms = PermutationSet.from_strings(["ABCD", "ABDC"])
    circuit = build_fixed_circuit(scs(perms), perms)
    assert circuit.query_count == 5
    for x in range(2):
        idle = sum(1 for s in range(5) if not circuit.usage[s][x])
        assert idle == 1


def test_target_steps_spell_each_ordering(star_circuit):
    for x, word in enumerate(SIGMA_STAR.to_strings()):
        spelled = "".join(
            star_circuit.supersequence[s]
            for s in range(star_circuit.query_count)
            if star_circuit.usage[s][x]
        )
        assert spelled == word


def test_build_rejects_foreign_permutations():
    other = PermutationSet.from_strings(["ABCD", "BACD"])
    with pytest.raises(ValueError, match="different permutation set"):
        build_fixed_circuit(scs(SIGMA_STAR), other)


# ---------------------------------------------------------------------------
# circuit simulation
# ---------------------------------------------------------------------------

def test_ancilla_factor_for_nine_letter_sequence(nine_letter_circuit):
    # ACBADACDB uses A three times, B, C, D twice each
    orc = chart_fixture("table2")[1]
    mats = orc.matrices()
    zero = basis_state(2, 0)
    expected = kron_all([mats[0] @ mats[0] @ zero, mats[1] @ zero,
                         mats[2] @ zero, mats[3] @ zero])
    assert_allclose(ancilla_factor(nine_letter_circuit, orc), expected, atol=1e-12)


def test_ancillas_identical_across_branches(nine_letter_circuit):
    rng = np.random.default_rng(0)
    orc = random_oracle(rng)
    joint = simulate_fixed_circuit(nine_letter_circuit, orc,
                                   np.full(4, 0.5, dtype=complex),
                                   random_state(2, rng)).reshape(4, 2, 16)
    anc = ancilla_factor(nine_letter_circuit, orc)
    for x in range(4):
        branch = joint[x]  # (target, ancillas), weight 1/2
        # branch must be (target vector) (x) anc exactly
        target_vec = branch @ anc.conj()
        assert np.max(np.abs(branch - np.outer(target_vec, anc))) < 1e-10


def test_basis_control_gives_ordering_product(star_circuit):
    rng = np.random.default_rng(1)
    orc = random_oracle(rng)
    psi = random_state(2, rng)
    for x in range(4):
        joint = simulate_fixed_circuit(star_circuit, orc, basis_state(4, x), psi)
        joint = joint.reshape(4, 2, 16)
        anc = ancilla_factor(star_circuit, orc)
        target_vec = joint[x] @ anc.conj() / np.vdot(anc, anc)
        assert_allclose(target_vec, all_products(orc, SIGMA_STAR)[x] @ psi, atol=1e-10)


def test_circuit_matches_switch_on_fixtures(star_circuit, m4):
    control = m4.as_gate()[:, 0]
    for fix in chart_fixture("table1") + chart_fixture("table2"):
        f = switch_equivalence_fidelity(star_circuit, fix, control, basis_state(2, 0))
        assert f >= 1 - 1e-10


def test_circuit_matches_switch_on_random_inputs(star_circuit, nine_letter_circuit):
    rng = np.random.default_rng(2)
    for circuit in (star_circuit, nine_letter_circuit):
        for _ in range(5):
            orc = random_oracle(rng)
            f = switch_equivalence_fidelity(circuit, orc,
                                            random_state(4, rng), random_state(2, rng))
            assert f >= 1 - 1e-10


def per_branch_simulation(circuit, orc, control, target):
    """Reference: each branch on its own, the joint state as a Kronecker
    product of the target and the ancillas."""
    mats = orc.matrices()
    rows = []
    for x in range(circuit.perms.P):
        targ = target.copy()
        ancs = [basis_state(orc.dim, 0) for _ in range(orc.N)]
        for s, i in enumerate(circuit.symbols):
            if circuit.usage[s][x]:
                targ = mats[i] @ targ
            else:
                ancs[i] = mats[i] @ ancs[i]
        rows.append(control[x] * kron_all([targ] + ancs))
    return np.stack(rows)


def dense_fidelity(circuit, orc, control, psi):
    """<ref| Tr_ancillas |J><J| |ref> from the dense joint state of the
    per-branch reference, which shares no code with the circuit kernel."""
    joint = per_branch_simulation(circuit, orc, control, psi)
    # (ctrl, target) rows, the N ancillas merged into the columns
    joint = joint.reshape(circuit.perms.P * orc.dim, orc.dim ** orc.N)
    rho = joint @ joint.conj().T
    reference = apply_n_switch(control, psi, orc, circuit.perms)
    return float(np.real(reference.conj() @ rho @ reference))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sequence=st.sampled_from(["ACBADACDB", None]))
def test_fidelity_is_one_and_matches_dense_trace(seed, sequence):
    # Haar-random gates satisfy no promise, so only the circuit itself is tested
    embedding = scs(SIGMA_STAR) if sequence is None else embed_sequence(sequence, SIGMA_STAR)
    circuit = build_fixed_circuit(embedding, SIGMA_STAR)
    rng = np.random.default_rng(seed)
    orc = random_oracle(rng)
    control, psi = random_state(4, rng), random_state(2, rng)
    f = switch_equivalence_fidelity(circuit, orc, control, psi)
    assert abs(f - 1.0) <= 1e-10
    assert abs(f - dense_fidelity(circuit, orc, control, psi)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), p=st.integers(2, 5))
def test_qutrit_fidelity_matches_dense_trace(seed, n, p):
    rng = np.random.default_rng(seed)
    perms = random_orderings(rng, n, p)
    circuit = build_fixed_circuit(scs(perms), perms)
    orc = random_oracle(rng, n, 3)
    control, psi = random_state(perms.P, rng), random_state(3, rng)
    f = switch_equivalence_fidelity(circuit, orc, control, psi)
    assert abs(f - 1.0) <= 1e-10
    assert abs(f - dense_fidelity(circuit, orc, control, psi)) <= 1e-12


def test_eight_slots_need_a_23_query_circuit_that_reproduces_the_switch():
    # the switch queries each of the 8 gates once; a fixed-order circuit
    # pays for a shortest supersequence, 23 queries, a gap of 15
    perms = PermutationSet.from_strings(["ABCDEFGH", "CEDGFABH", "GCHEFBAD", "DCBHGAFE",
                                         "FEDAHCBG", "CBDGAFEH", "EHGFABCD", "BAECDFGH"])
    res = scs(perms)
    assert (res.length, res.sequence) == (23, "DCBFEDAHGACHEFABACDEFGH")
    circuit = build_fixed_circuit(res, perms)
    rng = np.random.default_rng(8)
    for _ in range(3):
        f = switch_equivalence_fidelity(circuit, random_oracle(rng, 8),
                                        random_state(8, rng), random_state(2, rng))
        assert abs(f - 1.0) <= FIDELITY_FLOOR


def test_promise_set_fidelities_match_dense_trace(star_circuit, m4, promise_sets):
    control, psi = m4.as_gate()[:, 0], random_state(2, np.random.default_rng(31))
    sets = promise_sets[1]
    fids = _fidelities(star_circuit, np.stack([s.matrices() for s in sets]), control, psi)
    assert len(fids) == 460 and fids.min() >= 1 - FIDELITY_FLOOR
    dense = [dense_fidelity(star_circuit, s, control, psi) for s in sets]
    assert np.max(np.abs(fids - dense)) <= 1e-12


def test_broken_plans_read_below_one_and_match_dense_trace(star_circuit, m4):
    # a flipped usage entry moves one gate between the target and an
    # ancilla of one branch, so the ancillas no longer disentangle
    rng = np.random.default_rng(21)
    control = m4.as_gate()[:, 0]
    for step in range(star_circuit.query_count):
        for branch in range(star_circuit.perms.P):
            broken = broken_circuit(star_circuit, step, branch)
            orc, psi = random_oracle(rng), random_state(2, rng)
            (f,) = _fidelities(broken, orc.matrices()[None], control, psi)
            assert abs(f - dense_fidelity(broken, orc, control, psi)) <= 1e-12
            assert f < 0.999


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), p=st.integers(2, 5),
       n_sets=st.integers(1, 3))
def test_branch_batched_simulation_matches_per_branch_loop(seed, n, p, n_sets):
    rng = np.random.default_rng(seed)
    perms = random_orderings(rng, n, p)
    circuit = build_fixed_circuit(scs(perms), perms)
    oracles = [random_oracle(rng, n) for _ in range(n_sets)]
    control, psi = random_state(perms.P, rng), random_state(2, rng)
    mats = np.stack([o.matrices() for o in oracles])
    batch = _wire_states(circuit, mats, psi)
    fids = _fidelities(circuit, mats, control, psi)
    for orc, states, f in zip(oracles, batch, fids):
        expected = per_branch_simulation(circuit, orc, control, psi)
        joint = np.stack([c * kron_all(wires) for c, wires in zip(control, states)])
        assert np.max(np.abs(joint - expected)) <= 1e-14
        scalar = simulate_fixed_circuit(circuit, orc, control, psi)
        assert np.max(np.abs(scalar - expected.reshape(-1))) <= 1e-14
        assert abs(f - switch_equivalence_fidelity(circuit, orc, control, psi)) <= 1e-14


def test_fidelity_from_the_product_memo_is_bit_identical(star_circuit, m4, promise_sets):
    # the scalar call takes the set's memoized products (for enumerated sets
    # read from the word table); a stack of one computes them from the gates
    control, psi = m4.as_gate()[:, 0], random_state(2, np.random.default_rng(13))
    sets = promise_sets[1]
    got = np.array([switch_equivalence_fidelity(star_circuit, s, control, psi) for s in sets])
    want = np.concatenate([_fidelities(star_circuit, s.matrices()[None], control, psi)
                           for s in sets])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_wire_plan(star_circuit):
    wires = star_circuit.wires
    assert wires.shape == (9, 4) and not wires.flags.writeable
    for s, i in enumerate(star_circuit.symbols):
        for x in range(4):
            assert wires[s, x] == (0 if star_circuit.usage[s][x] else 1 + i)
    plan = star_circuit.plan
    assert plan.shape == (4, 4, 5) and not plan.flags.writeable
    symbols = np.array(star_circuit.symbols)
    for x in range(4):
        for w in range(5):
            gates = symbols[wires[:, x] == w]   # front-padded with the identity index 4
            assert plan[:, x, w].tolist() == [4] * (4 - len(gates)) + gates.tolist()


@pytest.mark.parametrize("step,branch", [(0, 0), (8, 3)])
def test_check_circuit_rejects_a_broken_plan(star_circuit, step, branch):
    broken = broken_circuit(star_circuit, step, branch)
    with pytest.raises(InvariantViolation, match="do not spell"):
        _check_circuit(broken)


def test_output_is_product_across_system_ancilla_cut(star_circuit):
    rng = np.random.default_rng(3)
    orc = random_oracle(rng)
    joint = simulate_fixed_circuit(star_circuit, orc,
                                   random_state(4, rng), random_state(2, rng))
    svals = np.linalg.svd(joint.reshape(8, 16), compute_uv=False)
    assert svals[1] <= 1e-8  # Schmidt rank 1 across the cut


def test_simulation_agrees_with_direct_switch_state(star_circuit):
    rng = np.random.default_rng(4)
    orc = random_oracle(rng)
    control, psi = random_state(4, rng), random_state(2, rng)
    joint = simulate_fixed_circuit(star_circuit, orc, control, psi).reshape(8, 16)
    anc = ancilla_factor(star_circuit, orc)
    reduced = joint @ anc.conj() / np.vdot(anc, anc)
    assert_allclose(reduced, apply_n_switch(control, psi, orc, SIGMA_STAR), atol=1e-10)


# ---------------------------------------------------------------------------
# side-information strategies
# ---------------------------------------------------------------------------

def test_attack_table1_exhaustive():
    for fix in chart_fixture("table1"):
        t = attack_table1(fix)
        assert t.guessed_y == fix.claimed_y
        assert t.query_count == 2
        assert [q.gate_label for q in t.queries] == ["A", "C"]
        assert all(q.basis == "X" for q in t.queries)


def test_attack_table1_specific_outcomes():
    t1 = attack_table1(chart_fixture("table1")[1])
    assert [q.outcome for q in t1.queries] == [-1, -1]
    t0 = attack_table1(chart_fixture("table1")[0])
    assert [q.outcome for q in t0.queries] == [1, 1]
    t2 = attack_table1(chart_fixture("table1")[2])
    assert [q.outcome for q in t2.queries] == [1, -1]


def test_attack_table2_exhaustive():
    expected_queries = {0: 4, 1: 1, 2: 4, 3: 2}
    for fix in chart_fixture("table2"):
        t = attack_table2(fix)
        assert t.guessed_y == fix.claimed_y
        assert t.query_count == expected_queries[fix.claimed_y]
        assert t.query_count <= 4


def test_attack_table2_separates_columns_zero_and_two():
    t0 = attack_table2(chart_fixture("table2")[0])
    t2 = attack_table2(chart_fixture("table2")[2])
    assert t0.queries[-1].outcome == 1 and t0.guessed_y == 0
    assert t2.queries[-1].outcome == -1 and t2.guessed_y == 2


def test_attack_combined_exhaustive():
    for table in ("table1", "table2"):
        for fix in chart_fixture(table):
            t = attack_combined(fix)
            assert t.guessed_y == fix.claimed_y
            assert t.query_count <= 5
            assert t.queries[0].gate_label == "D" and t.queries[0].basis == "Z"


def test_attack_combined_shared_column():
    a = attack_combined(chart_fixture("table1")[3])
    b = attack_combined(chart_fixture("table2")[3])
    assert a.guessed_y == b.guessed_y == 3


def test_attack_rejects_foreign_oracle():
    stranger = OracleSet(tuple(pauli(n) for n in ("Y", "Y", "Y", "Y")))
    with pytest.raises(ValueError, match="not column"):
        attack_table1(stranger)


@pytest.mark.parametrize("names", ["IXI", "IXIXZ"])
def test_attack_rejects_an_oracle_of_another_size(names):
    # both agree with column 0 of table1 on every gate they share with it
    oracle = OracleSet(tuple(pauli(n) for n in names))
    attacks = [attack_table1] + ([attack_combined] if len(names) > 4 else [])
    for attack in attacks:
        with pytest.raises(ValueError, match="is not column"):
            attack(oracle)
