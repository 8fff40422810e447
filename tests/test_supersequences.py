import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchlab import (PermutationSet, SIGMA_STAR, SupersequenceResult, embed_sequence,
                       is_supersequence, quartet_census, scs)
from switchlab import supersequences
from switchlab.supersequences import _delta_table, _shortest_paths


def perms_of(*words):
    return PermutationSet.from_strings(words)


# independent oracle: exhaustive search over all strings of a given length
def brute_force_scs_length(words, alphabet):
    length = max(len(w) for w in words)
    while True:
        for cand in itertools.product(alphabet, repeat=length):
            s = "".join(cand)
            if all(is_supersequence(s, w)[0] for w in words):
                return length
        length += 1


def test_single_permutation_is_its_own_supersequence():
    res = scs(perms_of("ABCD"))
    assert res.length == 4 and res.sequence == "ABCD"
    assert res.embeddings == ((0, 1, 2, 3),)


def test_sigma_star_needs_nine_queries():
    res = scs(SIGMA_STAR)
    assert res.length == 9
    for word, emb in zip(SIGMA_STAR.to_strings(), res.embeddings):
        assert "".join(res.sequence[i] for i in emb) == word


def test_pair_needs_five():
    # [frozen from exhaustive search, re-certified here]
    assert brute_force_scs_length(["ABCD", "ABDC"], "ABCD") == 5
    assert scs(perms_of("ABCD", "ABDC")).length == 5


def test_known_nine_letter_supersequence():
    for word in SIGMA_STAR.to_strings():
        ok, emb = is_supersequence("ACBADACDB", word)
        assert ok
        assert "".join("ACBADACDB"[i] for i in emb) == word


def test_not_a_supersequence():
    ok, emb = is_supersequence("ABC", "CBA")
    assert not ok and emb is None


def test_embed_sequence_validates():
    res = embed_sequence("ACBADACDB", SIGMA_STAR)
    assert res.length == 9
    with pytest.raises(ValueError, match="not a supersequence"):
        embed_sequence("ABCD", SIGMA_STAR)


@pytest.mark.parametrize("embedding", [(-2, -1), (-1, 0), (0, 2), (0, 5)])
def test_embedding_positions_must_lie_inside_the_sequence(embedding):
    # negative positions used to wrap around and certify "AB" as "AB"
    with pytest.raises(ValueError, match=r"inside \[0, 2\)"):
        SupersequenceResult("AB", (embedding,), perms_of("AB"))


@pytest.mark.parametrize("embedding, message", [((1, 0), "strictly increase"),
                                                ((0, 0), "strictly increase"),
                                                ((0,), "does not spell"),
                                                ((0, 2), "does not spell")])
def test_embeddings_must_increase_and_spell_their_ordering(embedding, message):
    with pytest.raises(ValueError, match=message):
        SupersequenceResult("BAB", (embedding,), perms_of("AB"))


def identity_quartets(n):
    ident = tuple(range(n))
    others = [p for p in itertools.permutations(range(n)) if p != ident]
    return [(ident,) + trio for trio in itertools.combinations(others, 3)]


# independent oracle: bottom-up DP over the (n+1)**P prefix lattice, no BFS
def dp_lengths(sigmas):
    """Minimal supersequence length of each ordering set in sigmas[B, P, n]:
    f(goal) = 0 and f(p) = 1 + min over advancing letters a of f(delta(p, a))."""
    sigmas = np.asarray(sigmas)
    batch, n_perms, n = sigmas.shape
    prefixes = np.array(list(itertools.product(range(n + 1), repeat=n_perms)))
    weights = (n + 1) ** np.arange(n_perms - 1, -1, -1)   # prefixes[key] @ weights == key
    need = np.concatenate([sigmas, np.full((batch, n_perms, 1), -1)], axis=2)
    waits = need[:, np.arange(n_perms), prefixes]          # [B, key, P]
    sets = np.arange(batch)
    f = np.full((batch, len(prefixes)), np.inf)
    f[:, -1] = 0
    for key in range(len(prefixes) - 2, -1, -1):           # successors have larger keys
        best = np.full(batch, np.inf)
        for letter in range(n):
            step = (waits[:, key] == letter) @ weights
            best = np.where(step > 0, np.minimum(best, f[sets, key + step]), best)
        f[:, key] = 1 + best
    return f[:, 0].astype(int).tolist()


def test_scs_matches_brute_force_on_small_sets():
    rng = np.random.default_rng(0)
    all3 = ["".join(p) for p in itertools.permutations("ABC")]
    for _ in range(12):
        k = int(rng.integers(2, 4))
        chosen = ["ABC"] + list(rng.choice([w for w in all3 if w != "ABC"],
                                           size=k - 1, replace=False))
        expected = brute_force_scs_length(chosen, "ABC")
        assert scs(perms_of(*chosen)).length == expected


def test_adding_a_permutation_never_shortens():
    rng = np.random.default_rng(1)
    all4 = ["".join(p) for p in itertools.permutations("ABCD")]
    for _ in range(10):
        extra = rng.choice(all4[1:], size=3, replace=False)
        base = ["ABCD"], ["ABCD"] + list(extra[:1]), ["ABCD"] + list(extra[:2])
        lengths = [scs(perms_of(*words)).length for words in base]
        assert lengths == sorted(lengths)


def test_length_bounds():
    rng = np.random.default_rng(2)
    all4 = ["".join(p) for p in itertools.permutations("ABCD")]
    for _ in range(10):
        words = ["ABCD"] + list(rng.choice(all4[1:], size=3, replace=False))
        length = scs(perms_of(*words)).length
        assert 4 <= length <= 16


def test_scs_is_deterministic():
    a = scs(SIGMA_STAR)
    b = scs(SIGMA_STAR)
    assert a.sequence == b.sequence == "ABACBDACB"  # lexicographically smallest


def test_scs_refuses_a_search_beyond_the_key_bound():
    # nine orderings of eight labels key 9**9 states, more than _MAX_KEYS;
    # the refusal comes before the 387 MB mask or any table is allocated
    nine = perms_of("ABCDEFGH", "CEDGFABH", "GCHEFBAD", "DCBHGAFE", "FEDAHCBG",
                    "CBDGAFEH", "EHGFABCD", "BAECDFGH", "HGFEDCBA")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"a search over {9 ** 9} states exceeds "
                                             f"the {supersequences._MAX_KEYS} one search may key"):
            scs(nine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert supersequences._MAX_KEYS == 2 ** 26 and peak < 2 ** 20
    # seven labels, once over the old cap, are searched: a word and its
    # reverse share one label at most, so they need 2 * 7 - 1 queries
    res = scs(perms_of("ABCDEFG", "GFEDCBA"))
    assert (res.length, res.sequence) == (13, "ABCDEFGFEDCBA")


def test_quartet_census_counts():
    census = quartet_census()
    assert census.total == 1771
    assert census.histogram == {6: 37, 7: 946, 8: 779, 9: 9}


def test_quartet_census_by_dp():
    lengths = dp_lengths(identity_quartets(4))
    assert len(lengths) == 1771
    assert {k: lengths.count(k) for k in sorted(set(lengths))} == {6: 37, 7: 946, 8: 779, 9: 9}


def test_five_label_census():
    census = quartet_census(n_labels=5)
    assert census.total == 273_819
    assert census.histogram == {7: 123, 8: 9726, 9: 90190, 10: 149090, 11: 24552, 12: 138}


def test_scs_sequences_of_every_quartet_are_pinned():
    # SHA-256 of the newline-joined sequences, taken from the sorted-array
    # BFS that preceded the mask search; it fixes every tie-break
    sequences = "\n".join(scs(PermutationSet(q)).sequence for q in identity_quartets(4))
    assert (hashlib.sha256(sequences.encode()).hexdigest()
            == "17b183e4d548d8436c6c7224942db226d01085e5c021be8b71cd52a8c0c6d58b")


def seeded_ordering_sets():
    """Identity-first random ordering sets in the shapes (N, P) of the
    query-cost benchmark, from a fixed seed."""
    rng = np.random.default_rng(28)
    for n, p, count in ((5, 5, 8), (6, 5, 6), (5, 6, 4), (5, 7, 3), (5, 8, 2), (6, 6, 2)):
        for _ in range(count):
            rows = [tuple(range(n))]
            while len(rows) < p:
                row = tuple(rng.permutation(n).tolist())
                if row not in rows:
                    rows.append(row)
            yield PermutationSet(rows)


def test_scs_sequences_of_larger_ordering_sets_are_pinned():
    # SHA-256 taken from the BFS that built the frontier with np.flatnonzero
    # and a fresh origin map every layer; larger frontiers exercise more ties
    sequences = "\n".join(scs(perms).sequence for perms in seeded_ordering_sets())
    assert (hashlib.sha256(sequences.encode()).hexdigest()
            == "03f6299ed97f7e2ae40ca386b8407ffba32377d34a9c17e9e8e12c21cfe66d39")


@pytest.mark.parametrize("n, orbits", [(3, 3), (4, 265)])
def test_orbit_census_equals_a_search_of_every_quartet(n, orbits, monkeypatch):
    quartets = identity_quartets(n)
    lengths = [len(path) for path in _shortest_paths(quartets)]
    searched = []
    search = supersequences._shortest_paths
    monkeypatch.setattr(supersequences, "_shortest_paths",
                        lambda sigmas: searched.append(len(sigmas)) or search(sigmas))
    for length in sorted(set(lengths)) + [max(lengths) + 1]:
        searched.clear()
        census = quartet_census(n_labels=n, collect=length)
        assert sum(searched) == orbits
        assert census.total == len(quartets)
        assert census.histogram == {k: lengths.count(k) for k in sorted(set(lengths))}
        assert census.collected == tuple(tuple(PermutationSet(q).to_strings())
                                         for q, k in zip(quartets, lengths) if k == length)


@settings(max_examples=30, deadline=None)
@given(trio=st.lists(st.permutations(range(5)), min_size=3, max_size=3, unique_by=tuple)
       .filter(lambda rows: tuple(range(5)) not in map(tuple, rows)))
def test_dp_matches_scs_on_five_label_quartets(trio):
    rows = [tuple(range(5))] + [tuple(row) for row in trio]
    assert dp_lengths([rows]) == [scs(PermutationSet(rows)).length]


def relabeled(rows, anchor):
    """Every row relabeled by the inverse of ``anchor``, which becomes the identity."""
    inverse = np.argsort(anchor)
    return [tuple(int(inverse[label]) for label in row) for row in rows]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), data=st.data())
def test_scs_length_is_invariant_under_the_orbit_maps(n, data):
    # the two maps the orbit census relies on
    rows = [tuple(row) for row in
            data.draw(ordering_sets(n, data.draw(st.integers(1, min(5, math.factorial(n))))))]
    length = scs(PermutationSet(rows, require_identity_reference=False)).length
    anchor = data.draw(st.sampled_from(rows))
    image = PermutationSet(relabeled(rows, anchor), require_identity_reference=False)
    assert scs(image).length == length
    reversed_rows = [row[::-1] for row in rows]
    image = PermutationSet(relabeled(reversed_rows, anchor[::-1]), require_identity_reference=False)
    assert scs(image).length == length


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("h", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_delta_table_matches_a_loop_over_progress_digits(batch, h, n):
    rng = np.random.default_rng(100 * batch + 10 * h + n)
    radix = n + 1
    sigmas = np.array([[rng.permutation(n) for _ in range(h)] for _ in range(batch)],
                      dtype=np.int64).reshape(batch, h, n)
    need = np.concatenate([sigmas, np.full((batch, h, 1), n)], axis=2)
    weights = rng.integers(1, 10 ** 6, size=h, dtype=np.int64)
    blocks = np.zeros((batch, h, radix, n), dtype=np.int64)   # one-hot, weighted
    for b, k, q_k in itertools.product(range(batch), range(h), range(n)):
        blocks[b, k, q_k, need[b, k, q_k]] = weights[k]
    expected = np.zeros((batch * radix ** h, n), dtype=np.int64)
    for b in range(batch):
        # every progress-digit tuple, the completed digit n included
        for q in itertools.product(range(radix), repeat=h):
            row = b * radix ** h + sum(q_k * radix ** (h - 1 - k) for k, q_k in enumerate(q))
            for k, q_k in enumerate(q):
                if q_k < n:
                    expected[row, need[b, k, q_k]] += weights[k]
    table = _delta_table(blocks)
    assert table.dtype == np.int64
    assert np.array_equal(table, expected)


def ordering_sets(n, size):
    return st.lists(st.permutations(range(n)), min_size=size, max_size=size,
                    unique_by=tuple)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_census_path_matches_brute_force(n, data):
    rows = data.draw(ordering_sets(n, data.draw(st.integers(1, 6 if n < 4 else 3))))
    alphabet = "ABCD"[:n]
    words = ["".join(alphabet[j] for j in row) for row in rows]
    (path,) = _shortest_paths([rows])
    assert len(path) == brute_force_scs_length(words, alphabet)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_batched_paths_match_single_searches(n, data):
    # members share one visited-key array, so a key leaking between them
    # would shorten or reroute some member's path
    p = data.draw(st.integers(1, min(3, math.factorial(n))))
    batch = data.draw(st.lists(ordering_sets(n, p), min_size=1, max_size=6))
    alphabet = "ABCD"[:n]
    paths = _shortest_paths(batch)
    assert len(paths) == len(batch)
    for rows, path in zip(batch, paths):
        assert path == _shortest_paths([rows])[0]
        words = ["".join(alphabet[j] for j in row) for row in rows]
        assert len(path) == brute_force_scs_length(words, alphabet)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_scs_is_the_first_shortest_supersequence(n, data):
    rows = data.draw(ordering_sets(n, data.draw(st.integers(1, 4 if n < 4 else 3))))
    perms = PermutationSet(rows, require_identity_reference=False)
    words = perms.to_strings()
    alphabet = "ABCD"[:n]
    length = brute_force_scs_length(words, alphabet)
    first = next("".join(c) for c in itertools.product(alphabet, repeat=length)
                 if all(is_supersequence("".join(c), w)[0] for w in words))
    assert scs(perms).sequence == first


def test_quartet_census_rejects_label_counts_outside_one_to_five():
    for bad in (0, 6, 8):
        with pytest.raises(ValueError, match="between 1 and 5"):
            quartet_census(n_labels=bad)


def test_quartet_census_label_count_must_be_an_integer():
    # 4.0 raised TypeError from range
    for bad in (4.0, "4", None):
        with pytest.raises(ValueError, match=f"n_labels must be an integer, not {bad!r}"):
            quartet_census(n_labels=bad)
    assert quartet_census(n_labels=np.int64(3)).histogram == {5: 6, 6: 4}


def test_quartet_census_collected_length_must_be_an_integer():
    # "x" and 7.5 matched no length and returned an empty ``collected``
    for bad in ("x", 7.5, "9"):
        with pytest.raises(ValueError, match=f"collect must be an integer, not {bad!r}"):
            quartet_census(n_labels=3, collect=bad)
    assert len(quartet_census(n_labels=3, collect=np.int64(6)).collected) == 4


def test_quartet_census_small_label_counts():
    assert quartet_census(n_labels=1).total == 0
    assert quartet_census(n_labels=3).histogram == {5: 6, 6: 4}


def test_census_collects_the_nine_hardest():
    census = quartet_census(collect=9)
    assert len(census.collected) == 9
    assert tuple(SIGMA_STAR.to_strings()) in census.collected
