import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from switchlab import (NoiseModel, OracleSet, PermutationSet, RunResult, SIGMA_STAR,
                       all_products, apply_n_switch, basis_state,
                       chart_fixture, check_promise, enumerate_promise_sets,
                       fourier_matrix, gate_set_G, hadamard_m4, pauli, random_state,
                       run_hadamard_algorithm, sample_shots,
                       sylvester_hadamard)
from switchlab.gates import NamedGate
from switchlab.linalg import random_unitary
from switchlab.switch import _finish, _ordering_products, _overrotation, _products, _readout


def oracle_of(*names):
    return OracleSet(tuple(pauli(n) for n in names))


# ---------------------------------------------------------------------------
# permutation sets
# ---------------------------------------------------------------------------

def test_sigma_star_contents():
    assert SIGMA_STAR.to_strings() == ["ABCD", "BADC", "CBDA", "DACB"]
    assert SIGMA_STAR.N == 4 and SIGMA_STAR.P == 4


def test_to_strings_returns_a_fresh_list_every_call():
    # the words are built once per set; a caller's edit must not reach them
    perms = PermutationSet.from_strings(["ABC", "CAB"])
    words = perms.to_strings()
    words[0] = "ZZZ"
    words.append("BCA")
    assert perms.to_strings() == ["ABC", "CAB"]
    assert perms.to_strings() is not perms.to_strings()


def test_permutation_set_validation():
    with pytest.raises(ValueError, match="not a permutation"):
        PermutationSet.from_strings(["ABCA"])
    with pytest.raises(ValueError, match="distinct"):
        PermutationSet.from_strings(["ABC", "ABC"])
    with pytest.raises(ValueError, match="identity"):
        PermutationSet.from_strings(["BACD", "ABCD"])
    relabeled = PermutationSet.from_strings(["BACD", "ABCD"],
                                            require_identity_reference=False)
    assert relabeled.P == 2
    for empty in (lambda: PermutationSet([()]), lambda: PermutationSet.from_strings([""])):
        with pytest.raises(ValueError, match="an ordering needs at least one label"):
            empty()


def test_permutation_set_refuses_more_labels_than_it_can_name():
    # nine labels were accepted by the constructor; to_strings and
    # embed_sequence then raised IndexError on the ninth
    with pytest.raises(ValueError, match="at most 8 labels supported, got 9"):
        PermutationSet([tuple(range(9))])
    with pytest.raises(ValueError, match="not a permutation of 'ABCDEFGH'"):
        PermutationSet.from_strings(["ABCDEFGHI"])
    eight = PermutationSet([tuple(range(8)), tuple(range(8))[::-1]])
    assert eight.to_strings() == ["ABCDEFGH", "HGFEDCBA"]
    assert PermutationSet.from_strings(eight.to_strings()) == eight


# ---------------------------------------------------------------------------
# ordering products
# ---------------------------------------------------------------------------

def test_product_first_column_oracle():
    # gates (Z, X, Z, X): reference ordering gives X Z X Z = -1
    orc = oracle_of("Z", "X", "Z", "X")
    assert_allclose(all_products(orc, SIGMA_STAR)[0], -np.eye(2), atol=1e-12)
    # third ordering: Z X X Z = +1, the sign of entry (2, 1)
    assert_allclose(all_products(orc, SIGMA_STAR)[2], np.eye(2), atol=1e-12)
    m = hadamard_m4().entries
    assert m[2, 1] == -1


def test_product_all_identity():
    orc = oracle_of("1", "1", "1", "1")
    for x in range(4):
        assert_allclose(all_products(orc, SIGMA_STAR)[x], np.eye(2))


@pytest.mark.parametrize("bad", [1.5, 2.0, "1"])
def test_claimed_y_must_be_an_integer(bad):
    # a float column used to pass here and fail every decode at list indexing
    with pytest.raises(ValueError, match="claimed_y must be an integer"):
        OracleSet(oracle_of("Z", "X", "Z", "X").gates, claimed_y=bad)


def test_claimed_y_accepts_numpy_integers():
    orc = OracleSet(oracle_of("Z", "X", "Z", "X").gates, claimed_y=np.int64(1))
    assert orc.claimed_y == 1 and type(orc.claimed_y) is int


def test_product_index_out_of_range():
    with pytest.raises(IndexError):
        all_products(oracle_of("1", "1", "1", "1"), SIGMA_STAR)[4]


def fold_products(mats, sigma):
    """Reference ordering products: fold each ordering left to right,
    left-multiplying one gate at a time onto the identity."""
    return np.stack([functools.reduce(lambda acc, j: mats[j] @ acc, row,
                                      np.eye(mats.shape[-1], dtype=complex))
                     for row in sigma])


def test_all_products_matches_product_pi():
    orc = OracleSet(tuple(pauli(n) for n in ("Z", "X", "Y", "1")))
    assert_allclose(all_products(orc, SIGMA_STAR),
                    fold_products(orc.matrices(), SIGMA_STAR.sigma))


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3]), n=st.integers(1, 5), data=st.data(),
       batch=st.sampled_from([None, 1, 3]), seed=st.integers(0, 2**32 - 1))
def test_ordering_products_match_fold_reference(d, n, data, batch, seed):
    sigma = data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=6))
    rng = np.random.default_rng(seed)
    shape = (n,) if batch is None else (batch, n)
    mats = np.array([random_unitary(d, rng) for _ in range(int(np.prod(shape)))])
    mats = mats.reshape(shape + (d, d))
    got = _ordering_products(mats, sigma)
    if batch is None:
        assert got.shape == (len(sigma), d, d)
        assert_allclose(got, fold_products(mats, sigma), atol=1e-12)
    else:
        assert got.shape == (batch, len(sigma), d, d)
        for b in range(batch):
            assert_allclose(got[b], fold_products(mats[b], sigma), atol=1e-12)


# ---------------------------------------------------------------------------
# product memo
# ---------------------------------------------------------------------------

def haar_oracle(n, rng):
    return OracleSet(tuple(NamedGate(f"U{i}", random_unitary(2, rng)) for i in range(n)))


def test_product_memo_returns_one_read_only_array():
    orc = oracle_of("Z", "X", "Y", "1")
    first = all_products(orc, SIGMA_STAR)
    assert all_products(orc, SIGMA_STAR) is first
    assert _products(orc, SIGMA_STAR) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first[0, 0, 0] = 0.0


@pytest.mark.parametrize("epsilon", [0.0, 0.05, -0.4])
def test_product_memo_equals_ordering_products(epsilon):
    orc = haar_oracle(4, np.random.default_rng(3))
    mats = orc.matrices()
    if epsilon != 0.0:
        mats = _overrotation(epsilon) @ mats
    assert np.array_equal(_products(orc, SIGMA_STAR, epsilon),
                          _ordering_products(mats, SIGMA_STAR.index))


def test_product_memo_keys_orderings_and_epsilon():
    orc = haar_oracle(4, np.random.default_rng(4))
    other = PermutationSet.from_strings(["ABCD", "DCBA"])
    cases = [(perms, eps) for perms in (SIGMA_STAR, other) for eps in (0.0, 0.05)]
    prods = [_products(orc, perms, eps) for perms, eps in cases]
    assert set(orc._product_memo) == {(perms.sigma, eps) for perms, eps in cases}
    assert [p.shape[0] for p in prods] == [4, 4, 2, 2]
    assert not np.array_equal(prods[0], prods[1])
    assert not np.array_equal(prods[2], prods[3])


def test_conjugated_oracle_starts_with_an_empty_memo():
    orc = oracle_of("Z", "X", "Y", "1")
    all_products(orc, SIGMA_STAR)
    conj = orc.conjugated(random_unitary(2, np.random.default_rng(5)))
    assert len(orc._product_memo) == 1 and conj._product_memo == {}


def test_one_set_computes_its_products_once_per_epsilon(monkeypatch, m4, promise_sets):
    # the promise sweep checks a set, decodes it ideally, then on a dephasing grid
    calls = []

    def counting(mats, sigma):
        calls.append(mats.shape)
        return _ordering_products(mats, sigma)

    monkeypatch.setattr("switchlab.switch._ordering_products", counting)
    s = promise_sets[1][7]
    s = OracleSet(s.gates, claimed_y=s.claimed_y)    # a memo this test alone fills
    assert check_promise(s, SIGMA_STAR, m4).satisfied
    rng = np.random.default_rng(6)
    targets = [basis_state(2, 0)] + [random_state(2, rng) for _ in range(10)]
    for psi in targets:
        run_hadamard_algorithm(s, SIGMA_STAR, m4, psi)
    for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
        run_hadamard_algorithm(s, SIGMA_STAR, m4, targets[1], NoiseModel(gamma, 0.05))
    assert len(calls) == 2


def test_memoized_decodes_equal_direct_computation(m4, promise_sets):
    # direct: the products rebuilt from the gates for every call
    def direct(orc, psi, noise):
        mats = orc.matrices()
        if noise.epsilon != 0.0:
            mats = _overrotation(noise.epsilon) @ mats
        dist = _readout(_ordering_products(mats, SIGMA_STAR.index), m4._readout,
                        psi, noise.gamma)
        return _finish(dist, orc.claimed_y)

    sets = promise_sets[1]
    rng = np.random.default_rng(7)
    targets = [basis_state(2, 0)] + [random_state(2, rng) for _ in range(10)]
    cases = [(s, psi, NoiseModel()) for s in sets for psi in targets]
    cases += [(s, psi, NoiseModel(gamma, eps)) for s in sets[::23] for psi in targets[::5]
              for gamma in (0.0, 0.3, 1.0) for eps in (0.0, 0.05, -0.4)]
    for orc, psi, noise in cases:
        got = run_hadamard_algorithm(orc, SIGMA_STAR, m4, psi, noise)
        want = direct(orc, psi, noise)
        assert np.array_equal(got.outcome_distribution, want.outcome_distribution)
        assert (got.decoded_y, got.success_probability) == (want.decoded_y,
                                                            want.success_probability)


# SHA-256 over the decode pin below, computed with the code before enumerated
# sets carried their products and sign matrices their readout constants.
DECODE_PIN = "3a3a4f1b3bc433fa02274dd8a6f87122f86213aa2bb60a4d8acfdc3012ec689d"
DECODE_PIN_NOISE = ((0.0, 0.0), (0.25, 0.05), (1.0, -0.3), (0.5, 0.0))


def decode_pin_digest(sets, m4):
    """Every bit the decode path returns, hashed: check_promise verdicts,
    outcome distributions, decoded columns and success probabilities of the
    given sets and 20 seeded Haar oracles under sigma*, on |0> and 5 seeded
    targets at four (gamma, epsilon) settings, plus Fourier decodes and
    seeded shot counts of every 46th set and four Haar oracles."""
    rng = np.random.default_rng(2020)
    haar = [haar_oracle(4, rng) for _ in range(20)]
    targets = [basis_state(2, 0)] + [random_state(2, rng) for _ in range(5)]
    h = hashlib.sha256()
    for orc in sets + haar:
        h.update(repr(check_promise(orc, SIGMA_STAR, m4)).encode())
        for psi in targets:
            for gamma, epsilon in DECODE_PIN_NOISE:
                res = run_hadamard_algorithm(orc, SIGMA_STAR, m4, psi, NoiseModel(gamma, epsilon))
                h.update(res.outcome_distribution.tobytes())
                h.update(repr((res.decoded_y, res.success_probability)).encode())
    for orc in sets[::46] + haar[:4]:
        for psi in targets[:2]:
            res = run_hadamard_algorithm(orc, SIGMA_STAR, fourier_matrix(4), psi)
            h.update(res.outcome_distribution.tobytes())
            h.update(repr((res.decoded_y, res.success_probability)).encode())
            h.update(sample_shots(res, 6000, 7).tobytes())
            noisy = run_hadamard_algorithm(orc, SIGMA_STAR, m4, psi, NoiseModel(0.3, 0.05))
            h.update(sample_shots(noisy, 6000, 7).tobytes())
    return h.hexdigest()


def test_decode_bits_are_pinned(m4, promise_sets):
    # To regenerate after a deliberate change of the decode arithmetic:
    #   _, sets = enumerate_promise_sets(gate_set_G(), SIGMA_STAR, hadamard_m4())
    #   print(decode_pin_digest(sets, hadamard_m4()))
    # and say in CHANGES.md why the bits moved.
    assert decode_pin_digest(promise_sets[1], m4) == DECODE_PIN
    fresh = [OracleSet(s.gates, claimed_y=s.claimed_y) for s in promise_sets[1]]
    assert decode_pin_digest(fresh, m4) == DECODE_PIN   # products built from the gates


def kernel_dephasing(monkeypatch, rho, gamma):
    """What _readout makes of the control blocks ``rho`` at dephasing gamma:
    the blocks are fed in through the branch rows, and read back at the
    readout matrix."""
    class Joint(np.ndarray):
        def __matmul__(self, other):
            return rho.copy()

    class Capture:
        def __matmul__(self, dephased):
            self.rho = dephased.copy()
            return dephased

    monkeypatch.setattr("switchlab.switch._branch_rows",
                        lambda *args: np.zeros((1, 1)).view(Joint))
    capture = Capture()
    _readout(None, (None, capture, 1.0), None, gamma)
    return capture.rho


@pytest.mark.parametrize("gamma", [5e-324, 0.3, 0.5, 1 - 2 ** -53, 1.0])
def test_dephasing_equals_the_mask_bit_for_bit(monkeypatch, gamma):
    rng = np.random.default_rng(11)
    for shape in ((1, 4, 4), (3, 2, 8, 8), (2, 1, 1)):
        rho = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for part in (rho.real, rho.imag):   # exact zeros of both signs
            part[rng.random(shape) < 0.3] = 0.0
            part[rng.random(shape) < 0.3] = -0.0
        assert np.signbit(rho.real[rho.real == 0]).any()
        want = rho * ((1.0 - gamma) + gamma * np.eye(shape[-1]))
        got = kernel_dephasing(monkeypatch, rho, gamma)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# the switch gate
# ---------------------------------------------------------------------------

def test_switch_on_basis_control():
    orc = oracle_of("Z", "X", "Z", "X")
    psi = random_state(2, np.random.default_rng(1))
    joint = apply_n_switch(basis_state(4, 0), psi, orc, SIGMA_STAR)
    expected = np.kron(basis_state(4, 0), all_products(orc, SIGMA_STAR)[0] @ psi)
    assert_allclose(joint, expected, atol=1e-12)


def test_switch_on_superposed_control():
    orc = oracle_of("Z", "X", "Z", "X")
    psi = basis_state(2, 0)
    control = np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2)
    joint = apply_n_switch(control, psi, orc, SIGMA_STAR)
    pi0 = all_products(orc, SIGMA_STAR)[0]
    pi1 = all_products(orc, SIGMA_STAR)[1]
    assert_allclose(pi1, pi0, atol=1e-12)  # signs agree in orderings 0 and 1
    expected = (np.kron(basis_state(4, 0), pi0 @ psi)
                + np.kron(basis_state(4, 1), pi1 @ psi)) / np.sqrt(2)
    assert_allclose(joint, expected, atol=1e-12)


def test_switch_preserves_norm():
    rng = np.random.default_rng(2)
    orc = OracleSet(tuple(NamedGate(f"U{i}", random_unitary(2, rng)) for i in range(4)))
    for _ in range(5):
        joint = apply_n_switch(random_state(4, rng), random_state(2, rng), orc, SIGMA_STAR)
        assert abs(np.linalg.norm(joint) - 1) < 1e-10


def test_switch_dimension_mismatch():
    orc = oracle_of("1", "1", "1", "1")
    with pytest.raises(ValueError, match="control"):
        apply_n_switch(basis_state(3, 0), basis_state(2, 0), orc, SIGMA_STAR)


# ---------------------------------------------------------------------------
# single-shot decoding, sign-matrix variant
# ---------------------------------------------------------------------------

def test_uniform_superposition_after_control_gate(m4):
    # the control gate sends |0> to amplitude 1/sqrt(P) on every basis state
    col = m4.as_gate()[:, 0]
    assert_allclose(col, np.full(4, 0.5), atol=1e-12)
    col8 = sylvester_hadamard(3).as_gate()[:, 0]
    assert_allclose(col8, np.full(8, 1 / np.sqrt(8)), atol=1e-12)


def test_post_switch_state_structure(m4):
    # for a promise oracle the joint state is (signs column) x (fixed target)
    for fix in chart_fixture("table1") + chart_fixture("table2"):
        y = fix.claimed_y
        psi = random_state(2, np.random.default_rng(3 + y))
        control = m4.as_gate()[:, 0]
        joint = apply_n_switch(control, psi, fix, SIGMA_STAR).reshape(4, 2)
        pi0 = all_products(fix, SIGMA_STAR)[0]
        expected = np.outer(m4.entries[:, y] / 2.0, pi0 @ psi)
        assert np.max(np.abs(joint - expected)) < 1e-9
        # target factor identical across branches up to the sign
        for x in range(4):
            assert np.max(np.abs(joint[x] * m4.entries[x, y] - joint[0] * m4.entries[0, y])) < 1e-9


def test_decode_table_fixtures(m4):
    for which in ("table1", "table2"):
        for fix in chart_fixture(which):
            res = run_hadamard_algorithm(fix, SIGMA_STAR, m4, basis_state(2, 0))
            assert res.decoded_y == fix.claimed_y
            assert abs(res.success_probability - 1.0) < 1e-9


def test_decode_all_identity(m4):
    orc = OracleSet(tuple(pauli("1") for _ in range(4)), claimed_y=0)
    res = run_hadamard_algorithm(orc, SIGMA_STAR, m4, basis_state(2, 0))
    assert res.decoded_y == 0
    assert abs(res.outcome_distribution[0] - 1.0) < 1e-12


def test_decode_bisector_column(m4):
    fix = chart_fixture("table2")[0]
    assert fix.names() == ("(Z+X)/sqrt2", "(Z+X)/sqrt2", "I", "I")
    res = run_hadamard_algorithm(fix, SIGMA_STAR, m4, basis_state(2, 0))
    assert res.decoded_y == 0 and abs(res.success_probability - 1) < 1e-9


def test_decode_random_targets(m4):
    rng = np.random.default_rng(4)
    fix = chart_fixture("table2")[2]
    for _ in range(25):
        res = run_hadamard_algorithm(fix, SIGMA_STAR, m4, random_state(2, rng))
        assert abs(res.success_probability - 1.0) < 1e-9


def test_hadamard_requires_matching_order(m4):
    perms2 = PermutationSet.from_strings(["AB", "BA"])
    orc2 = OracleSet((pauli("Z"), pauli("X")))
    with pytest.raises(ValueError, match="order"):
        run_hadamard_algorithm(orc2, perms2, m4, basis_state(2, 0))


def test_single_ordering_is_trivially_decoded():
    # P = 1 is allowed and decodes to 0
    perms = PermutationSet.from_strings(["ABCD"])
    orc = OracleSet(tuple(pauli(n) for n in ("Z", "X", "Y", "1")))
    res = run_hadamard_algorithm(orc, perms, sylvester_hadamard(0), basis_state(2, 0))
    assert res.decoded_y == 0
    assert res.outcome_distribution.shape == (1,)


def test_claimed_column_must_index_an_outcome(m4):
    orc = OracleSet(tuple(pauli(n) for n in ("Z", "X", "Z", "X")), claimed_y=9)
    with pytest.raises(ValueError, match="claimed column 9 out of range for P = 4"):
        run_hadamard_algorithm(orc, SIGMA_STAR, m4, basis_state(2, 0))
    perms = PermutationSet.from_strings(["AB", "BA"])
    with pytest.raises(ValueError, match="claimed column 2 out of range for P = 2"):
        run_hadamard_algorithm(OracleSet((pauli("Z"), pauli("X")), claimed_y=2), perms,
                               fourier_matrix(2), basis_state(2, 0))


def test_decode_input_checks(m4):
    orc = oracle_of("Z", "X", "Z", "X")
    with pytest.raises(ValueError, match="oracle size"):
        run_hadamard_algorithm(oracle_of("Z", "X", "Z"), SIGMA_STAR, m4, basis_state(2, 0))
    with pytest.raises(ValueError, match="target dimension"):
        run_hadamard_algorithm(orc, SIGMA_STAR, m4, basis_state(3, 0))
    f4 = fourier_matrix(4)
    with pytest.raises(ValueError, match="oracle size"):
        run_hadamard_algorithm(oracle_of("Z", "X", "Z"), SIGMA_STAR, f4, basis_state(2, 0))
    with pytest.raises(ValueError, match="target dimension"):
        run_hadamard_algorithm(orc, SIGMA_STAR, f4, basis_state(4, 0))
    # decoding is defined at any target dimension; the tilt is a qubit rotation
    qutrits = OracleSet(tuple(NamedGate(f"T{i}", np.eye(3)) for i in range(4)), claimed_y=0)
    for m in (m4, f4):
        res = run_hadamard_algorithm(qutrits, SIGMA_STAR, m, basis_state(3, 0))
        assert res.decoded_y == 0 and abs(res.success_probability - 1.0) < 1e-12
        with pytest.raises(ValueError, match="overrotation acts on qubit gates only"):
            run_hadamard_algorithm(qutrits, SIGMA_STAR, m, basis_state(3, 0), NoiseModel(0.0, 0.1))


def test_success_probability_requires_claimed_column(m4):
    orc = OracleSet(tuple(pauli(n) for n in ("Z", "X", "Z", "X")))  # no claimed_y
    res = run_hadamard_algorithm(orc, SIGMA_STAR, m4, basis_state(2, 0))
    assert res.success_probability is None
    assert res.decoded_y == 1


@pytest.mark.parametrize("bad", [[np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0],
                                 [np.inf, -np.inf], [0.5, -np.inf]])
def test_run_result_rejects_non_finite_distributions(bad):
    # a NaN compares False against any bound, so an unguarded check would pass it
    with pytest.raises(ValueError):
        RunResult(np.array(bad), 0, None)


@pytest.mark.parametrize("raw", [[0.1, 0.2, 0.3, 0.4], [1.0, -1e-17, 0.0, 0.0],
                                 [-0.0, 2.0, -0.0, 0.0], [3e-320, 1e-320, 0.0, 0.0],
                                 [0.5, 0.5, -1e-10, 0.0], [-0.5, -0.5, 0.0, 0.0]])
@pytest.mark.parametrize("claimed_y", [None, 0, 1])
def test_finish_matches_the_public_constructor(raw, claimed_y):
    # the decode path skips RunResult's second check pass; its result must
    # be the one RunResult builds from the normalized distribution
    raw = np.array(raw)
    got = _finish(raw, claimed_y)
    p = raw / raw.sum()
    success = None if claimed_y is None else max(float(p[claimed_y]), 0.0)
    want = RunResult(p, int(p.argmax()), success)
    assert np.array_equal(got.outcome_distribution.view(np.uint64),
                          want.outcome_distribution.view(np.uint64))
    assert not got.outcome_distribution.flags.writeable
    assert got.decoded_y == want.decoded_y
    assert repr(got.success_probability) == repr(want.success_probability)


@pytest.mark.parametrize("raw, message", [
    ([0.5, 0.5, -1e-3, 0.0], "negative or NaN"),
    ([1.0, np.nan, 0.0, 0.0], "negative or NaN"),
    ([1e308, 1e308, 0.0, 0.0], "must sum to 1"),
])
def test_finish_rejects_what_the_public_constructor_rejects(raw, message):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
        _finish(np.array(raw), 0)


# ---------------------------------------------------------------------------
# Fourier sign matrices
# ---------------------------------------------------------------------------

def test_fourier_anticommuting_pair():
    perms = PermutationSet.from_strings(["AB", "BA"])
    orc = OracleSet((pauli("Z"), pauli("X")))
    res = run_hadamard_algorithm(orc, perms, fourier_matrix(2), basis_state(2, 0))
    assert res.decoded_y == 1
    assert abs(res.outcome_distribution[1] - 1.0) < 1e-12


def test_fourier_identity_and_commuting():
    perms = PermutationSet.from_strings(["AB", "BA"])
    for names in (("1", "1"), ("Z", "Z")):
        orc = OracleSet(tuple(pauli(n) for n in names))
        res = run_hadamard_algorithm(orc, perms, fourier_matrix(2), basis_state(2, 0))
        assert res.decoded_y == 0


def test_fourier_agrees_with_sign_variant_for_two_orderings():
    # the order-2 sign gate and the order-2 Fourier gate are the same matrix
    perms = PermutationSet.from_strings(["AB", "BA"])
    m2 = sylvester_hadamard(1)
    rng = np.random.default_rng(5)
    for _ in range(10):
        orc = OracleSet((NamedGate("U0", random_unitary(2, rng)),
                         NamedGate("U1", random_unitary(2, rng))))
        psi = random_state(2, rng)
        a = run_hadamard_algorithm(orc, perms, m2, psi)
        b = run_hadamard_algorithm(orc, perms, fourier_matrix(2), psi)
        assert_allclose(a.outcome_distribution, b.outcome_distribution, atol=1e-10)


# ---------------------------------------------------------------------------
# noise model
# ---------------------------------------------------------------------------

def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(gamma=1.5)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="epsilon"):
            NoiseModel(epsilon=bad)


def test_trivial_noise_reproduces_ideal_exactly(m4):
    fix = chart_fixture("table1")[2]
    psi = random_state(2, np.random.default_rng(6))
    ideal = run_hadamard_algorithm(fix, SIGMA_STAR, m4, psi)
    noisy = run_hadamard_algorithm(fix, SIGMA_STAR, m4, psi, NoiseModel(0.0, 0.0))
    assert np.array_equal(ideal.outcome_distribution, noisy.outcome_distribution)


@pytest.mark.parametrize("case", ["pair_p2", "sigma_star", "pauli_p8"])
def test_dephasing_law_holds_on_every_promise_set(m4, promise_sets, case):
    # control dephasing gamma keeps the promised column with probability
    # 1 - (P - 1) gamma / P, for every set and any target
    if case == "pair_p2":
        perms, m = PermutationSet.from_strings(["AB", "BA"]), sylvester_hadamard(1)
        sets = enumerate_promise_sets(gate_set_G(), perms, m)[1]
    elif case == "sigma_star":
        perms, m, sets = SIGMA_STAR, m4, promise_sets[1]
    else:
        perms = PermutationSet.from_strings(
            ["ABCD", "ADBC", "ADCB", "BACD", "BADC", "BCAD", "BCDA", "BDAC"])
        m = sylvester_hadamard(3)
        sets = enumerate_promise_sets([pauli(n) for n in "IZXY"], perms, m)[1]
    assert len(sets) == {"pair_p2": 46, "sigma_star": 460, "pauli_p8": 64}[case]
    rng = np.random.default_rng(17)
    targets = [basis_state(2, 0)] + [random_state(2, rng) for _ in range(2)]
    for gamma in (0.02, 0.05, 0.1):
        law = 1 - (perms.P - 1) * gamma / perms.P
        for s in sets:
            for psi in targets:
                res = run_hadamard_algorithm(s, perms, m, psi, NoiseModel(gamma, 0.0))
                assert abs(res.success_probability - law) <= 1e-12


def reference_dephased(pis, u_ctrl, target, gamma):
    """Rank-4 reference: the full (control x target) density matrix with
    control coherences scaled by 1 - gamma, rotated by u_ctrl^-1, then the
    diagonal of the control marginal."""
    p = u_ctrl.shape[0]
    joint = u_ctrl[:, 0][:, None] * np.einsum("xij,j->xi", pis, target)
    rho = np.einsum("xi,yj->xiyj", joint, joint.conj())
    rho = rho * ((1.0 - gamma) + gamma * np.eye(p))[:, None, :, None]
    uinv = u_ctrl.conj().T
    rho = np.einsum("ax,xiyj,by->aibj", uinv, rho, uinv.conj())
    return np.einsum("xixi->x", rho).real


DECODE_SETUPS = [
    (SIGMA_STAR, hadamard_m4()),
    (PermutationSet.from_strings(["ABC", "CAB"]), sylvester_hadamard(1)),
    (PermutationSet.from_strings(["ABCD"]), sylvester_hadamard(0)),
    (SIGMA_STAR, fourier_matrix(4)),
]


@settings(max_examples=60, deadline=None)
@given(setup=st.sampled_from(DECODE_SETUPS), seed=st.integers(0, 2**32 - 1),
       gamma=st.floats(0.0, 1.0), epsilon=st.floats(-0.5, 0.5))
def test_decode_matches_rank4_reference(setup, seed, gamma, epsilon):
    perms, m = setup
    rng = np.random.default_rng(seed)
    orc = haar_oracle(perms.N, rng)
    psi = random_state(2, rng)
    h = m.as_gate()
    tilted = _overrotation(epsilon) @ orc.matrices()
    pis = fold_products(tilted, perms.sigma)
    expected = reference_dephased(pis, h, psi, gamma)
    assert_allclose(_readout(pis, m._readout, psi, gamma), expected, atol=1e-12)
    res = run_hadamard_algorithm(orc, perms, m, psi, NoiseModel(gamma, epsilon))
    assert_allclose(res.outcome_distribution, expected, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(setup=st.sampled_from(DECODE_SETUPS), seed=st.integers(0, 2**32 - 1),
       gamma=st.floats(0.0, 1.0), epsilon=st.floats(-0.5, 0.5))
def test_decode_is_affine_in_gamma(setup, seed, gamma, epsilon):
    perms, m = setup
    rng = np.random.default_rng(seed)
    orc = haar_oracle(perms.N, rng)
    psi = random_state(2, rng)

    def dist(g):
        noise = NoiseModel(g, epsilon)
        return run_hadamard_algorithm(orc, perms, m, psi, noise).outcome_distribution

    assert_allclose(dist(gamma), (1 - gamma) * dist(0.0) + gamma * dist(1.0), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(setup=st.sampled_from(DECODE_SETUPS[:2]), seed=st.integers(0, 2**32 - 1),
       gamma=st.floats(0.0, 1.0), epsilon=st.floats(-0.5, 0.5))
def test_qubit_sign_matrix_decode_ignores_the_target(setup, seed, gamma, epsilon):
    # H_P and the control amplitudes are real, so only Re<psi|Pi_y^dag Pi_x|psi>
    # enters; Pi_y^dag Pi_x is in SU(2), where that is Tr/2 for every psi
    perms, m = setup
    rng = np.random.default_rng(seed)
    orc = haar_oracle(perms.N, rng)
    noise = NoiseModel(gamma, epsilon)
    a, b = (run_hadamard_algorithm(orc, perms, m, random_state(2, rng), noise)
            for _ in range(2))
    assert_allclose(a.outcome_distribution, b.outcome_distribution, atol=1e-12)


def test_fourier_decode_depends_on_the_target():
    # with d >= P the Fourier readout sees the target, so the decode kernel
    # takes a target and cannot share one distribution between targets
    perms = PermutationSet([(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    rng = np.random.default_rng(5)
    for _ in range(5):
        orc = OracleSet(tuple(NamedGate(f"U{i}", random_unitary(3, rng)) for i in range(3)))
        a, b = (run_hadamard_algorithm(orc, perms, fourier_matrix(3), random_state(3, rng))
                .outcome_distribution for _ in range(2))
        assert np.max(np.abs(a - b)) > 1e-3


@settings(max_examples=40, deadline=None)
@given(setup=st.sampled_from(DECODE_SETUPS[:2] + DECODE_SETUPS[3:]),
       seed=st.integers(0, 2**32 - 1), n_sets=st.integers(1, 5), n_targets=st.integers(1, 4),
       gamma=st.floats(0.0, 1.0), epsilon=st.floats(-0.5, 0.5))
def test_batched_decode_equals_scalar_calls(setup, seed, n_sets, n_targets, gamma, epsilon):
    perms, m = setup
    rng = np.random.default_rng(seed)
    oracles = [haar_oracle(perms.N, rng) for _ in range(n_sets)]
    targets = np.stack([random_state(2, rng) for _ in range(n_targets)])
    pis = _ordering_products(_overrotation(epsilon) @ np.stack([o.matrices() for o in oracles]),
                             perms.index)
    noise = NoiseModel(gamma, epsilon)
    for psi in targets:   # one target per call; the sets are the batch
        batch = _readout(pis, m._readout, psi, gamma)
        assert batch.shape == (n_sets, perms.P)
        for orc, row in zip(oracles, batch):
            scalar = run_hadamard_algorithm(orc, perms, m, psi, noise).outcome_distribution
            assert np.array_equal(_finish(row, None).outcome_distribution.view(np.uint64),
                                  scalar.view(np.uint64))


def test_success_nonincreasing_in_gamma(m4):
    fix = chart_fixture("table1")[1]
    psi = basis_state(2, 0)
    values = []
    for gamma in np.linspace(0.0, 1.0, 11):
        res = run_hadamard_algorithm(fix, SIGMA_STAR, m4, psi,
                                     NoiseModel(gamma=float(gamma)))
        values.append(res.success_probability)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert abs(values[0] - 1.0) < 1e-12
    assert abs(values[-1] - 0.25) < 1e-12  # fully dephased control is uniform


def test_overrotation_degrades_success(m4):
    # column 0 of the first table is sensitive to the rotation knob (column 1
    # happens to be immune: the tilt weaves through Z/X words sign-free)
    fix = chart_fixture("table1")[0]
    res = run_hadamard_algorithm(fix, SIGMA_STAR, m4, basis_state(2, 0),
                                 NoiseModel(gamma=0.0, epsilon=0.2))
    assert res.success_probability < 1.0 - 1e-6
    assert res.decoded_y == fix.claimed_y  # small tilt does not flip the argmax


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampling_point_mass(m4):
    fix = chart_fixture("table1")[3]
    res = run_hadamard_algorithm(fix, SIGMA_STAR, m4, basis_state(2, 0))
    counts = sample_shots(res, 6000, seed=11)
    assert counts[3] == 6000 and counts.sum() == 6000


def test_sampling_uniform_within_five_sigma(m4):
    orc = OracleSet(tuple(pauli("1") for _ in range(4)), claimed_y=0)
    res = run_hadamard_algorithm(orc, SIGMA_STAR, m4, basis_state(2, 0),
                                 NoiseModel(gamma=1.0))
    n = 10 ** 6
    counts = sample_shots(res, n, seed=12)
    sigma = np.sqrt(n * 0.25 * 0.75)
    assert np.all(np.abs(counts - n / 4) < 5 * sigma)


def test_sampling_deterministic(m4):
    fix = chart_fixture("table1")[1]
    res = run_hadamard_algorithm(fix, SIGMA_STAR, m4, basis_state(2, 0),
                                 NoiseModel(gamma=0.3))
    a = sample_shots(res, 6000, seed=7)
    b = sample_shots(res, 6000, seed=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_shots(res, 6000, seed=8))


def test_sampling_takes_integer_shots(m4):
    res = run_hadamard_algorithm(chart_fixture("table1")[0], SIGMA_STAR, m4, basis_state(2, 0))
    with pytest.raises(ValueError, match="shots must be an integer, not 2.5"):
        sample_shots(res, 2.5, seed=0)   # used to draw 2 shots
    assert sample_shots(res, np.int64(5), seed=0).sum() == 5


def test_sampling_refuses_shots_beyond_int64(m4):
    res = run_hadamard_algorithm(chart_fixture("table1")[0], SIGMA_STAR, m4, basis_state(2, 0))
    assert sample_shots(res, 2 ** 63 - 1, seed=0).sum() == 2 ** 63 - 1
    with pytest.raises(ValueError, match=r"shots must be at most 9223372036854775807"):
        sample_shots(res, 2 ** 63, seed=0)   # used to raise numpy's OverflowError


def test_sampling_rejects_negative_seed(m4):
    res = run_hadamard_algorithm(chart_fixture("table1")[0], SIGMA_STAR, m4, basis_state(2, 0))
    with pytest.raises(ValueError, match="seed must be non-negative"):
        sample_shots(res, 5, seed=-1)


def test_sampling_takes_integer_seeds(m4):
    res = run_hadamard_algorithm(chart_fixture("table1")[0], SIGMA_STAR, m4, basis_state(2, 0))
    with pytest.raises(ValueError, match="seed must be an integer, not 2.5"):
        sample_shots(res, 5, 2.5)   # used to raise numpy's TypeError
    assert np.array_equal(sample_shots(res, 5, np.int64(3)), sample_shots(res, 5, 3))
