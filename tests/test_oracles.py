import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchlab import (NoiseModel, OracleSet, PermutationSet, SIGMA_STAR, chart_fixture,
                       check_promise, enumerate_promise_sets,
                       equivalence_classes, fourier_matrix, gate_set_G, pauli, random_state,
                       run_hadamard_algorithm, sylvester_hadamard, verify_classification)
from switchlab import oracles
from switchlab.linalg import (CONJUGATOR_TOL, DEGENERATE, KEY_DECIMALS, PROMISE_TOL,
                              InvariantViolation, random_unitary)
from switchlab.gates import SignMatrix
from switchlab.oracles import (PromiseVerdict, _TAU, _certificates, _first_long, _gate_words,
                               _word_products, bloch_rotation)
from switchlab.switch import NamedGate, _ordering_products, all_products


def oracle_of(*names):
    return OracleSet(tuple(pauli(n) for n in names))


def conjugator(a, b, phase_sensitive=True):
    """The verified certificate that merges b into a's class, or None."""
    return equivalence_classes([a, b], phase_sensitive).conjugators.get(1)


# independent oracle: plain-loop product and sign comparison
def brute_force_verdict(matrices, perms, sign_rows, tol=1e-9):
    products = []
    for sig in perms.sigma:
        p = np.eye(2, dtype=complex)
        for j in sig:
            p = matrices[j] @ p
        products.append(p)
    for y in range(len(sign_rows[0])):
        if all(np.max(np.abs(products[x] - sign_rows[x][y] * products[0])) <= tol
               for x in range(len(products))):
            return y
    return None


# ---------------------------------------------------------------------------
# promise checking
# ---------------------------------------------------------------------------

def test_promise_fixture_column(m4):
    fix = chart_fixture("table1")[3]
    assert fix.names() == ("Z", "X", "I", "X")
    verdict = check_promise(fix, SIGMA_STAR, m4)
    assert verdict.satisfied and verdict.y == 3
    assert verdict.residual <= 1e-9


def test_promise_all_identity(m4):
    verdict = check_promise(oracle_of("1", "1", "1", "1"), SIGMA_STAR, m4)
    assert verdict.satisfied and verdict.y == 0


def test_promise_matches_brute_force(m4):
    cases = [
        ("Z", "X", "Y", "1"),
        ("Z", "X", "Z", "X"),
        ("1", "X", "Z", "X"),
        ("Y", "Y", "Y", "Y"),
        ("Z", "Y", "X", "1"),
    ]
    for names in cases:
        orc = oracle_of(*names)
        expected = brute_force_verdict([g.matrix for g in orc.gates],
                                       SIGMA_STAR, m4.entries)
        verdict = check_promise(orc, SIGMA_STAR, m4)
        assert verdict.satisfied == (expected is not None)
        assert verdict.y == expected


def test_promise_invariant_under_per_gate_phases(m4):
    # every ordering uses each gate exactly once, so per-gate phases put a
    # common factor on all products and cancel out of the sign pattern
    rng = np.random.default_rng(7)
    for names in (("Z", "X", "Z", "X"), ("Z", "X", "Y", "1")):
        orc = oracle_of(*names)
        base = check_promise(orc, SIGMA_STAR, m4)
        phases = np.exp(2j * np.pi * rng.random(4))
        rephased = OracleSet(tuple(
            NamedGate(g.name, ph * g.matrix) for g, ph in zip(orc.gates, phases)
        ))
        verdict = check_promise(rephased, SIGMA_STAR, m4)
        assert (verdict.satisfied, verdict.y) == (base.satisfied, base.y)


def test_promise_conjugation_invariance(m4):
    rng = np.random.default_rng(0)
    for names in (("Z", "X", "Z", "X"), ("Z", "X", "Y", "1"), ("1", "X", "Z", "X")):
        orc = oracle_of(*names)
        base = check_promise(orc, SIGMA_STAR, m4)
        for _ in range(5):
            v = random_unitary(2, rng)
            rotated = orc.conjugated(v)
            verdict = check_promise(rotated, SIGMA_STAR, m4)
            assert verdict.satisfied == base.satisfied
            assert verdict.y == base.y


def test_promise_relabeling_consistency(m4):
    # renaming the gate labels together with the orderings leaves every
    # ordering product, and hence the verdict, unchanged
    tau = [2, 0, 3, 1]
    inverse = [tau.index(i) for i in range(4)]
    relabeled_sigma = [tuple(inverse[j] for j in row) for row in SIGMA_STAR.sigma]
    relabeled_perms = PermutationSet(relabeled_sigma, require_identity_reference=False)
    for names in (("Z", "X", "Z", "X"), ("Z", "X", "Y", "1"), ("1", "X", "Z", "X")):
        orc = oracle_of(*names)
        relabeled_oracle = OracleSet(tuple(orc.gates[tau[i]] for i in range(4)),
                                     claimed_y=orc.claimed_y)
        a = check_promise(orc, SIGMA_STAR, m4)
        b = check_promise(relabeled_oracle, relabeled_perms, m4)
        assert (a.satisfied, a.y) == (b.satisfied, b.y)


# reference: one full pass over the products per column of float signs
def residuals_by_column(prods, signs):
    ref = prods[..., :1, :, :]
    return np.stack([np.max(np.abs(prods - col[:, None, None] * ref), axis=(-3, -2, -1))
                     for col in signs.astype(float).T], axis=-1)


def verdict_of(residuals):
    hits = np.flatnonzero(residuals <= PROMISE_TOL)
    if hits.size:
        return True, int(hits[0]), float(residuals[hits[0]])
    return False, None, float(residuals.min())


def test_promise_residual_bits_match_the_per_column_form(m4, promise_sets):
    rng = np.random.default_rng(17)
    haar = [OracleSet(tuple(NamedGate(f"u{i}", random_unitary(2, rng)) for i in range(4)))
            for _ in range(64)]
    orderings = list(itertools.permutations(range(4)))   # the identity first
    perms8 = PermutationSet([orderings[k] for k in
                             (0, *rng.choice(np.arange(1, 24), size=7, replace=False))])
    m8 = sylvester_hadamard(3)
    paulis = [oracle_of(*names) for names in itertools.product("1ZXY", repeat=4)]
    cases = [(orc, SIGMA_STAR, m4) for orc in promise_sets[1] + haar]
    cases += [(orc, perms8, m8) for orc in haar + paulis]
    for orc, perms, m in cases:
        expected = residuals_by_column(all_products(orc, perms), m.entries)
        got = oracles._promise_residuals(all_products(orc, perms), m)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        verdict = check_promise(orc, perms, m)
        assert (verdict.satisfied, verdict.y, verdict.residual) == verdict_of(expected)
    assert any(check_promise(orc, perms8, m8).satisfied for orc in paulis)

    # one full enumeration chunk, then the same products with every zero part negative
    words = _gate_words(np.stack([g.matrix for g in gate_set_G()]), 4)
    q = np.stack(np.unravel_index(np.arange(oracles._CHUNK), (10,) * 4), axis=1)
    chunk = _word_products(words, 10, q, SIGMA_STAR.index)
    signed = chunk.copy()
    signed.real[signed.real == 0] = -0.0
    signed.imag[signed.imag == 0] = -0.0
    assert np.signbit(signed.real).sum() > np.signbit(chunk.real).sum()
    for prods in (chunk, signed):
        expected = residuals_by_column(prods, m4.entries)
        got = oracles._promise_residuals(prods, m4)
        assert got.shape == (oracles._CHUNK, 4)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_single_ordering_promise_holds_for_every_assignment():
    # P = 1: only the reference ordering, so no distance is measured and every
    # assignment satisfies column 0 at residual 0.0
    one = SignMatrix(np.ones((1, 1), dtype=int))
    perms = PermutationSet.from_strings(["ABCD"])
    census, sets = enumerate_promise_sets(gate_set_G(), perms, one)
    assert census.per_column == (10_000,) and len(sets) == 10_000
    assert {s.claimed_y for s in sets} == {0}
    for orc in sets[::97]:
        assert check_promise(orc, perms, one) == PromiseVerdict(True, 0, 0.0)
    prods = all_products(sets[1234], perms)
    assert oracles._promise_residuals(prods, one).tolist() == [0.0]


def test_fourier_promise_residuals_match_the_per_column_form(promise_sets):
    # each column against its own entries times the reference: F4 keeps one
    # copy of each distinct phase, so repeated phases may differ in the last bit
    f4 = fourier_matrix(4)
    _, sets = enumerate_promise_sets(gate_set_G(), SIGMA_STAR, f4)
    rng = np.random.default_rng(19)
    haar = [OracleSet(tuple(NamedGate(f"u{i}", random_unitary(2, rng)) for i in range(4)))
            for _ in range(16)]
    for k, orc in enumerate(sets + haar + promise_sets[1][::5]):
        prods = all_products(orc, SIGMA_STAR)
        expected = np.array([np.max(np.abs(prods - col[:, None, None] * prods[:1]))
                             for col in f4.entries.T])
        got = oracles._promise_residuals(prods, f4)
        assert np.max(np.abs(got - expected)) <= 1e-15
        verdict = check_promise(orc, SIGMA_STAR, f4)
        assert (verdict.satisfied, verdict.y) == verdict_of(got)[:2]
        if k < len(sets):
            assert verdict.y == orc.claimed_y


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_identity_only(m4):
    census, sets = enumerate_promise_sets([pauli("1")], SIGMA_STAR, m4)
    assert census.total == 1 and census.per_column == (1, 0, 0, 0)
    assert sets[0].claimed_y == 0


def test_enumerate_pauli_census_frozen(m4):
    # [frozen from an independent brute-force run: 136 = (52, 36, 24, 24)]
    gates = [pauli(n) for n in "IZXY"]
    census, sets = enumerate_promise_sets(gates, SIGMA_STAR, m4)
    assert census.total == 136
    assert census.per_column == (52, 36, 24, 24)
    # spot-verify each hit against the plain-loop oracle
    for orc in sets[::7]:
        expected = brute_force_verdict([g.matrix for g in orc.gates],
                                       SIGMA_STAR, m4.entries)
        assert orc.claimed_y == expected


def test_enumerate_full_library(promise_sets):
    census, sets = promise_sets
    assert census.total == 460
    assert census.per_column == (316, 60, 42, 42)
    assert len(sets) == 460


def test_enumeration_refuses_an_oversized_word_table(m4):
    # ten gates in eight slots make 10**8 words, about 6.4 GB: refused before
    # the word table is built
    perms = PermutationSet.from_strings(["ABCDEFGH", "BADCFEHG", "CDABGHEF", "DCBAHGFE"])
    with mock.patch.object(oracles, "_gate_words", side_effect=AssertionError("table built")):
        with pytest.raises(ValueError, match="make 100000000 gate words"):
            enumerate_promise_sets(gate_set_G(), perms, m4)


def test_enumerate_gate_order_invariance(m4):
    gates = [pauli(n) for n in "IZXY"]
    census_a, _ = enumerate_promise_sets(gates, SIGMA_STAR, m4)
    census_b, _ = enumerate_promise_sets(gates[::-1], SIGMA_STAR, m4)
    assert census_a.total == census_b.total
    assert census_a.per_column == census_b.per_column


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), g=st.integers(1, 6), d=st.sampled_from([2, 3]),
       n=st.integers(1, 5), p=st.integers(1, 6))
@example(seed=0, g=7, d=2, n=5, p=4)   # 7**5 words: more than _CHUNK, and no multiple of it
def test_word_table_products_match_ordering_products(seed, g, d, n, p):
    rng = np.random.default_rng(seed)
    mats = np.stack([random_unitary(d, rng) for _ in range(g)])
    sigma = np.array([rng.permutation(n) for _ in range(p)])
    combos = np.indices((g,) * n).reshape(n, -1).T
    words = _gate_words(mats, n)
    assert words.shape == (g ** n, d, d)
    # bit-identical, not just close: the factors associate the same way
    assert np.array_equal(_word_products(words, g, combos, sigma),
                          _ordering_products(mats[combos], sigma))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       picks=st.lists(st.integers(0, 9), min_size=1, max_size=6, unique=True),
       haar=st.booleans(), random_orderings=st.booleans(),
       chunk=st.sampled_from([7, 100, oracles._CHUNK]))
@example(seed=0, picks=list(range(9)), haar=False, random_orderings=False, chunk=oracles._CHUNK)
def test_enumeration_matches_per_assignment_loop(m4, seed, picks, haar, random_orderings, chunk):
    rng = np.random.default_rng(seed)
    library = gate_set_G()
    gates = [library[i] for i in picks]
    if haar:
        gates.append(NamedGate("haar", random_unitary(2, rng)))
    perms = SIGMA_STAR
    if random_orderings:
        orderings = list(itertools.permutations(range(4)))   # the identity first
        rest = rng.choice(np.arange(1, 24), size=3, replace=False)
        perms = PermutationSet([orderings[k] for k in (0, *rest)])
    expected = []
    for q in itertools.product(gates, repeat=4):
        verdict = check_promise(OracleSet(q), perms, m4)
        if verdict.satisfied:
            expected.append((tuple(g.name for g in q), verdict.y))
    with mock.patch.object(oracles, "_CHUNK", chunk):
        census, sets = enumerate_promise_sets(gates, perms, m4)
    assert [(s.names(), s.claimed_y) for s in sets] == expected
    assert census.per_column == tuple(sum(y == c for _, y in expected) for c in range(4))


PAULI_PERMS8 = PermutationSet.from_strings(
    ["ABCD", "ADBC", "ADCB", "BACD", "BADC", "BCAD", "BCDA", "BDAC"])


@pytest.mark.parametrize("case", ["sigma_star", "pauli_p8", "pair_p2"])
def test_enumerated_sets_carry_their_ordering_products(m4, promise_sets, case):
    # the enumeration already read each hit's products from the word table;
    # the set keeps them, bit for bit what _ordering_products builds from its gates
    if case == "sigma_star":
        perms, sets = SIGMA_STAR, promise_sets[1]
    elif case == "pauli_p8":
        perms = PAULI_PERMS8
        census, sets = enumerate_promise_sets([pauli(n) for n in "IZXY"], perms,
                                              sylvester_hadamard(3))
        assert census.per_column == (46, 6, 0, 0, 0, 6, 0, 6)
    else:
        perms = PermutationSet.from_strings(["AB", "BA"])
        census, sets = enumerate_promise_sets(gate_set_G(), perms, sylvester_hadamard(1))
        assert census.per_column == (34, 12)
    for s in sets:
        known = s._product_memo[(perms.sigma, 0.0)]
        assert not known.flags.writeable
        assert known.shape == (perms.P, 2, 2) and known.flags.c_contiguous
        direct = _ordering_products(s.matrices(), perms.index)
        assert np.array_equal(known.view(np.uint64), direct.view(np.uint64))
        assert all_products(s, perms) is known
    assert sets[3].conjugated(random_unitary(2, np.random.default_rng(8)))._product_memo == {}


def test_enumerated_sets_never_rebuild_products_at_zero_overrotation(monkeypatch, m4):
    calls = []

    def counting(mats, sigma):
        calls.append(mats.shape)
        return _ordering_products(mats, sigma)

    monkeypatch.setattr("switchlab.switch._ordering_products", counting)
    census, sets = enumerate_promise_sets(gate_set_G(), SIGMA_STAR, m4)
    target = random_state(2, np.random.default_rng(9))
    for s in sets[::10]:
        assert check_promise(s, SIGMA_STAR, m4).y == s.claimed_y
        for gamma in (0.0, 0.25, 1.0):
            run_hadamard_algorithm(s, SIGMA_STAR, m4, target, NoiseModel(gamma, 0.0))
    assert census.total == 460 and calls == []
    run_hadamard_algorithm(sets[0], SIGMA_STAR, m4, target, NoiseModel(0.25, 0.05))
    assert calls == [(4, 2, 2)]


def test_five_gate_instance(m4):
    # the longest five-label quartet: scs length 12 against 5 switch queries
    perms = PermutationSet.from_strings(["ABCDE", "ACBED", "DCAEB", "EBADC"])
    census, sets = enumerate_promise_sets(gate_set_G(), perms, m4)
    assert census.total == 3022
    assert census.per_column == (1840, 492, 384, 306)
    for oracle in sets:
        verdict = check_promise(oracle, perms, m4)
        assert verdict.satisfied and verdict.y == oracle.claimed_y


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def test_table1_contents(m4):
    fixtures = chart_fixture("table1")
    assert [f.claimed_y for f in fixtures] == [0, 1, 2, 3]
    for fix in fixtures:
        assert set(fix.names()) <= {"I", "Z", "X"}
        verdict = check_promise(fix, SIGMA_STAR, m4)
        assert verdict.satisfied and verdict.y == fix.claimed_y


def test_table2_contents(m4):
    fixtures = chart_fixture("table2")
    assert fixtures[0].names() == ("(Z+X)/sqrt2", "(Z+X)/sqrt2", "I", "I")
    for fix in fixtures:
        verdict = check_promise(fix, SIGMA_STAR, m4)
        assert verdict.satisfied and verdict.y == fix.claimed_y


def test_thirty_contents(m4):
    fixtures = chart_fixture("thirty")
    assert len(fixtures) == 30
    counts = [sum(1 for f in fixtures if f.claimed_y == y) for y in range(4)]
    assert counts == [16, 6, 4, 4]
    for fix in fixtures:
        verdict = check_promise(fix, SIGMA_STAR, m4)
        assert verdict.satisfied and verdict.y == fix.claimed_y


def test_unknown_fixture():
    with pytest.raises(ValueError):
        chart_fixture("table9")


# ---------------------------------------------------------------------------
# equivalence classification
# ---------------------------------------------------------------------------

def test_conjugated_pair_lands_in_one_class():
    g = {x.name: x for x in gate_set_G()}
    v = g["(I+iX)/sqrt2"].matrix
    orc = oracle_of("Z", "X", "Z", "X")
    pair = [orc, orc.conjugated(v)]
    cls = equivalence_classes(pair)
    assert cls.n_classes == 1
    verify_classification(cls, pair)


def test_identity_vs_z_quadruple_differ():
    pair = [oracle_of("1", "1", "1", "1"), oracle_of("Z", "Z", "Z", "Z")]
    cls = equivalence_classes(pair)
    assert cls.n_classes == 2


def test_find_conjugator_explicit():
    rng = np.random.default_rng(1)
    orc = oracle_of("Z", "X", "Y", "1")
    v = random_unitary(2, rng)
    w = conjugator(orc, orc.conjugated(v))
    assert w is not None
    for a, b in zip(orc.matrices(), orc.conjugated(v).matrices()):
        assert np.max(np.abs(w @ a @ w.conj().T - b)) < 1e-8


def test_find_conjugator_rejects_inequivalent():
    assert conjugator(oracle_of("1", "1", "1", "1"), oracle_of("Z", "Z", "Z", "Z")) is None


def test_rotation_conjugator_ignores_phases():
    # (Z, Z, X, Y) and (Z, Z, Y, X) differ by a quarter turn about z plus
    # per-gate phases, so only the phase-insensitive method merges them
    a = oracle_of("Z", "Z", "X", "Y")
    b = oracle_of("Z", "Z", "Y", "X")
    assert conjugator(a, b) is None
    r = conjugator(a, b, phase_sensitive=False)
    assert r is not None
    for u, w in zip(a.matrices(), b.matrices()):
        assert np.max(np.abs(r @ bloch_rotation(u) @ r.T - bloch_rotation(w))) < 1e-8


def test_classification_counts(promise_sets):
    _, sets = promise_sets
    strict = equivalence_classes(sets, phase_sensitive=True)
    verify_classification(strict, sets)
    assert strict.n_classes == 102
    loose = equivalence_classes(sets, phase_sensitive=False)
    verify_classification(loose, sets)
    assert loose.n_classes == 98
    # the phase-insensitive relation only merges, never splits
    assert loose.n_classes <= strict.n_classes
    assert sum(len(c) for c in strict.classes) == len(sets)


def test_phase_insensitive_conjugators_are_proper_rotations(promise_sets):
    # a reflection passes the conjugation check too, but only a rotation is
    # the Bloch image of a unitary
    _, sets = promise_sets
    loose = equivalence_classes(sets, phase_sensitive=False)
    assert loose.conjugators
    for o in loose.conjugators.values():
        assert np.max(np.abs(o @ o.T - np.eye(3))) < 1e-8
        assert abs(np.linalg.det(o) - 1.0) < 1e-8


def test_classification_invariant_under_input_order(promise_sets):
    _, sets = promise_sets
    order = np.random.default_rng(2).permutation(len(sets))
    shuffled = [sets[i] for i in order]

    def partition(classes, index):
        return sorted(sorted(int(index[i]) for i in c) for c in classes)

    for phase_sensitive in (True, False):
        a = equivalence_classes(sets, phase_sensitive)
        b = equivalence_classes(shuffled, phase_sensitive)
        assert partition(b.classes, order) == partition(a.classes, range(len(sets)))


def test_classification_invariant_under_common_rotation(promise_sets):
    _, sets = promise_sets
    v = random_unitary(2, np.random.default_rng(3))
    rotated = [s.conjugated(v) for s in sets]
    a = equivalence_classes(sets)
    b = equivalence_classes(rotated)
    assert a.n_classes == b.n_classes
    assert sorted(len(c) for c in a.classes) == sorted(len(c) for c in b.classes)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       picks=st.lists(st.integers(0, 459), min_size=1, max_size=30, unique=True))
def test_conjugated_copies_join_their_originals(promise_sets, seed, picks):
    _, sets = promise_sets
    subset = [sets[i] for i in picks]
    v = random_unitary(2, np.random.default_rng(seed))
    both = subset + [s.conjugated(v) for s in subset]
    for phase_sensitive in (True, False):
        cls = equivalence_classes(both, phase_sensitive)
        verify_classification(cls, both)
        class_of = {i: k for k, c in enumerate(cls.classes) for i in c}
        assert all(class_of[k] == class_of[k + len(subset)] for k in range(len(subset)))
        assert cls.n_classes == equivalence_classes(subset, phase_sensitive).n_classes


def test_collinear_sets_merge_under_any_conjugation():
    s = NamedGate("S", np.diag([1.0, 1j]))
    orc = OracleSet((pauli("Z"), s, pauli("1"), s))
    rng = np.random.default_rng(4)
    copies = [orc, orc.conjugated(pauli("X").matrix), orc.conjugated(random_unitary(2, rng))]
    other = OracleSet((pauli("Z"), s, pauli("1"), pauli("Z")))
    for phase_sensitive in (True, False):
        cls = equivalence_classes(copies + [other], phase_sensitive)
        verify_classification(cls, copies + [other])
        assert cls.classes == ((0, 1, 2), (3,))


def test_all_scalar_sets():
    minus, i_phase = (NamedGate(n, k * np.eye(2)) for n, k in (("-I", -1), ("iI", 1j)))
    a = OracleSet((pauli("1"), minus, i_phase, pauli("1")))
    sets = [a, a.conjugated(random_unitary(2, np.random.default_rng(5))), oracle_of(*"1111")]
    strict = equivalence_classes(sets)
    verify_classification(strict, sets)
    assert strict.classes == ((0, 1), (2,))
    loose = equivalence_classes(sets, phase_sensitive=False)
    verify_classification(loose, sets)
    assert loose.classes == ((0, 1, 2),)


def test_mirror_images_differ_only_strictly():
    # (-X, -Y, -Z) is the image of (X, Y, Z) under the inversion -1, which
    # no rotation realizes; per-gate phases absorb the signs
    negated = {n: NamedGate(f"-{n}", -pauli(n).matrix) for n in "XYZ"}
    pair = [oracle_of("X", "Y", "Z", "1"),
            OracleSet((negated["X"], negated["Y"], negated["Z"], pauli("1")))]
    assert equivalence_classes(pair).n_classes == 2
    assert conjugator(*pair) is None
    loose = equivalence_classes(pair, phase_sensitive=False)
    verify_classification(loose, pair)
    assert loose.n_classes == 1


def test_verify_classification_detects_tampering(promise_sets):
    _, sets = promise_sets
    subset = sets[:40]
    cls = equivalence_classes(subset)
    tampered = {k: np.eye(2) * 1j for k in cls.conjugators}
    assert tampered
    bad = type(cls)(cls.classes, cls.phase_sensitive, tampered)
    with pytest.raises(InvariantViolation):
        verify_classification(bad, subset)


def test_verify_classification_rejects_reflections(promise_sets):
    # -O conjugates Bloch rotations exactly as O does, but has determinant -1
    _, sets = promise_sets
    loose = equivalence_classes(sets[:40], phase_sensitive=False)
    assert loose.conjugators
    reflected = {k: -o for k, o in loose.conjugators.items()}
    bad = type(loose)(loose.classes, loose.phase_sensitive, reflected)
    with pytest.raises(InvariantViolation, match="fails verification"):
        verify_classification(bad, sets[:40])


def test_verify_classification_names_the_first_failing_merge(promise_sets):
    _, sets = promise_sets
    subset = sets[:40]
    for phase_sensitive in (True, False):
        cls = equivalence_classes(subset, phase_sensitive)
        merges = [(c[0], i) for c in cls.classes for i in c[1:]]
        # two merges whose members come in the opposite order to their classes
        first, later = next((a, b) for a in merges for b in merges[merges.index(a) + 1:]
                            if b[1] < a[1])
        tampered = dict(cls.conjugators)
        for _, i in (later, first):
            tampered[i] = 2 * tampered[i]
        bad = type(cls)(cls.classes, phase_sensitive, tampered)
        with pytest.raises(InvariantViolation,
                           match=rf"merge of set {first[1]} into class of {first[0]} fails"):
            verify_classification(bad, subset)


def test_classification_edge_cases():
    xyz1, xyz = oracle_of(*"XYZ1"), oracle_of(*"XYZ")
    qutrit = OracleSet((NamedGate("C", np.roll(np.eye(3), 1, axis=0)),))
    for phase_sensitive in (True, False):
        empty = equivalence_classes([], phase_sensitive)
        assert empty.n_classes == 0
        verify_classification(empty, [])
        # keys of sets of different sizes never meet, so the order survives
        mixed = equivalence_classes([xyz1, xyz, xyz1], phase_sensitive)
        assert mixed.classes == ((0, 2), (1,))
        verify_classification(mixed, [xyz1, xyz, xyz1])
        with pytest.raises(ValueError, match="equivalence classification expects qubit gates"):
            equivalence_classes([xyz1, qutrit], phase_sensitive)


# independent oracle: the classifier one set and one merge at a time.  The
# certificate arithmetic (_certificates, bloch_rotation) is shared, so that
# tol = 0 compares the batching rather than the last bits of rounding.
def reference_units(mats, phase_sensitive):
    """Per gate unit rows (scalar, vector), which of them are half turns, and
    what a certificate must map."""
    coef = np.einsum("mij,nji->nm", _TAU, mats) / 2
    if phase_sensitive:
        units = np.stack([coef.real, coef.imag], axis=1).reshape(-1, 4)
        return units, np.zeros(len(units), dtype=bool), mats
    coef = coef / np.sqrt(np.linalg.det(mats))[:, None]
    quat = np.concatenate([coef[:, :1].real, -coef[:, 1:].imag], axis=1)
    quat *= np.where(quat[:, :1] < 0, -1.0, 1.0)
    return quat, np.abs(quat[:, 0]) <= DEGENERATE, bloch_rotation(mats)


def reference_frames(rows):
    """The frame of each row of ``rows[R, M, 4]``, built from its vectors."""
    vecs = rows[..., 1:]
    e1, found = _first_long(vecs)
    e1[~found] = (1.0, 0.0, 0.0)
    e2, found = _first_long(vecs - (vecs @ e1[:, :, None]) * e1[:, None, :])
    axis = np.eye(3)[np.argmin(np.abs(e1), axis=1)]
    fill = axis - np.sum(axis * e1, axis=1, keepdims=True) * e1
    e2[~found] = fill[~found] / np.linalg.norm(fill[~found], axis=1, keepdims=True)
    return np.stack([e1, e2, np.cross(e1, e2)], axis=1)


def reference_form(mats, phase_sensitive):
    """The four-frame key: the frame under each proper sign change K, each
    half turn's sign fixed by its first coordinate above DEGENERATE, and the
    first smallest key kept."""
    units, half, mapped = reference_units(mats, phase_sensitive)
    (frame,) = reference_frames(units[None])
    best = None
    for k in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
        f = np.array(k, dtype=float)[:, None] * frame
        key = []
        for unit, is_half in zip(units, half):
            row = np.concatenate([unit[:1], f @ unit[1:]])
            if is_half and next(c for c in row[1:] if abs(c) > DEGENERATE) < 0:
                row = -row
            key.extend(np.round(row, KEY_DECIMALS).tolist())
        if best is None or tuple(key) < best[0]:
            best = tuple(key), f
    return (*best, mapped)


def exhaustive_form(mats, phase_sensitive):
    """The exhaustive key: every sign pattern over the h half turns, 2**h
    frames per set, the first smallest key kept.  Its keys and frames differ
    from the four-frame ones, so it serves only as a partition oracle."""
    units, half, mapped = reference_units(mats, phase_sensitive)
    turns = np.flatnonzero(half)
    signs = np.ones((2 ** len(turns), len(units)))
    signs[:, turns] = 1 - 2 * ((np.arange(len(signs))[:, None] >> np.arange(len(turns))) & 1)
    rows = units * signs[..., None]
    frames = reference_frames(rows)
    coords = (rows[..., 1:] @ frames.swapaxes(1, 2)).reshape(len(rows), -1)
    keys = np.round(np.concatenate([rows[..., 0], coords], axis=1), KEY_DECIMALS)
    best = np.lexsort(keys.T[::-1])[0]
    return tuple(keys[best].tolist()), frames[best], mapped


def reference_classes(sets, phase_sensitive, tol, form=reference_form):
    forms = [form(s.matrices(), phase_sensitive) for s in sets]
    by_key, classes, conjugators = {}, [], {}
    for i, (key, frame, mapped) in enumerate(forms):
        for k in by_key.get(key, ()):
            _, rep_frame, rep_mapped = forms[classes[k][0]]
            (c,), (err,) = _certificates(rep_frame[None], frame[None], rep_mapped[None],
                                         mapped[None], phase_sensitive)
            if err <= tol:
                classes[k].append(i)
                conjugators[i] = c
                break
        else:
            by_key.setdefault(key, []).append(len(classes))
            classes.append([i])
    return tuple(map(tuple, classes)), conjugators


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       picks=st.lists(st.integers(0, 459), max_size=40, unique=True),
       paulis=st.lists(st.text("1XYZ", min_size=4, max_size=4), max_size=10),
       copies=st.integers(0, 12))
def test_batched_classification_matches_per_set_loop(promise_sets, seed, picks, paulis, copies):
    # Pauli sets carry 0 to 4 half turns; with tol = 0 the rounding-level
    # error of a Haar copy fails its first try, so later copies fall back to
    # later classes with the same key
    _, sets = promise_sets
    rng = np.random.default_rng(seed)
    base = [sets[i] for i in picks] + [oracle_of(*p) for p in paulis]
    if base:
        base += [base[j].conjugated(random_unitary(2, rng))
                 for j in rng.integers(len(base), size=copies)]
    both = [base[i] for i in rng.permutation(len(base))]
    for phase_sensitive in (True, False):
        for tol in (CONJUGATOR_TOL, 0.0):
            with mock.patch.object(oracles, "CONJUGATOR_TOL", tol):
                got = equivalence_classes(both, phase_sensitive)
            classes, conjugators = reference_classes(both, phase_sensitive, tol)
            assert got.classes == classes
            assert got.conjugators.keys() == conjugators.keys()
            for i, c in conjugators.items():
                assert np.max(np.abs(got.conjugators[i] - c)) <= 1e-12
            if tol:
                assert got.classes == reference_classes(both, phase_sensitive, tol,
                                                        exhaustive_form)[0]


def test_four_frames_partition_like_the_sign_search(promise_sets):
    _, sets = promise_sets
    for phase_sensitive in (True, False):
        got = equivalence_classes(sets, phase_sensitive)
        classes, _ = reference_classes(sets, phase_sensitive, CONJUGATOR_TOL, exhaustive_form)
        assert got.classes == classes
        classes, conjugators = reference_classes(sets, phase_sensitive, CONJUGATOR_TOL)
        assert got.classes == classes and got.conjugators.keys() == conjugators.keys()
        assert all(np.max(np.abs(got.conjugators[i] - c)) <= 1e-12 for i, c in conjugators.items())


def test_phase_insensitive_classification_cost_is_bounded():
    # 16 half turns: a search over all 2**16 sign patterns would peak near 147 MiB
    s = OracleSet(tuple(pauli("XYZ"[k % 3]) for k in range(16)))
    tracemalloc.start()
    try:
        cls = equivalence_classes([s], phase_sensitive=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cls.n_classes == 1
    assert peak < 5 * 2**20


@settings(max_examples=25, deadline=None)
@given(draws=st.lists(st.lists(st.integers(0, 9), min_size=4, max_size=12), min_size=1,
                      max_size=8),
       seed=st.integers(0, 2**32 - 1))
@example(draws=[[2, 3, 1, 4], [2, 3, 1, 4], [1, 1, 1, 1]], seed=0)
def test_phase_insensitive_classes_ignore_per_gate_phases(draws, seed):
    # every gate of a copy takes its own phase, -1 (the sign of a half turn)
    # half of the time, and all copies share one Haar conjugation
    library = gate_set_G()
    originals = [OracleSet(tuple(library[i] for i in idx)) for idx in draws]
    rng = np.random.default_rng(seed)
    v = random_unitary(2, rng)
    copies = []
    for s in originals:
        phases = np.where(rng.random(s.N) < 0.5, np.pi, rng.uniform(0, 2 * np.pi, s.N))
        copies.append(OracleSet(tuple(NamedGate(g.name, np.exp(1j * p) * g.matrix)
                                      for g, p in zip(s.gates, phases))).conjugated(v))
    both = originals + copies
    cls = equivalence_classes(both, phase_sensitive=False)
    verify_classification(cls, both)
    assert cls.n_classes == equivalence_classes(originals, phase_sensitive=False).n_classes
    class_of = {i: k for k, c in enumerate(cls.classes) for i in c}
    assert all(class_of[k] == class_of[k + len(originals)] for k in range(len(originals)))
