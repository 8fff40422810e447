"""Shortest common supersequences of gate-order permutations.

The minimal supersequence length is the query cost of simulating the
controlled-ordering gate with a fixed-order circuit, so this module fixes
the query-complexity numbers.  One search serves both ``scs`` and the
census: a layered breadth-first search over progress vectors (one entry per
ordering, counting its matched symbols), run on a batch of ordering sets of
one shape at once.

* A state of set b is one integer, b*(n+1)**P + sum_k p_k*(n+1)**(P-1-k),
  and an index into one dense boolean mask of reached states (allocated
  zeroed, so only the pages the search touches are mapped).
* The orderings are split into two halves.  A table per half, indexed by
  that half's digits of the key, holds the key increment of every symbol,
  so each layer forms the successors of every state under all n symbols
  with two row gathers and keeps the ones the mask has not seen.
* Tie-break: a new state keeps its first occurrence in (frontier position,
  symbol) order, the order a FIFO queue expanding symbols alphabetically
  would find it.  The path read back from the goal is therefore the
  lexicographically smallest shortest supersequence.

``scs`` searches one set and certifies its result with explicit embeddings.
``quartet_census`` histograms the minimal lengths of all identity-containing
quartets.  Relabeling by a member's inverse and reversing every word keep
the minimal length, so it searches one quartet per orbit of those maps
(265 of 1771 at n = 4) and copies the length to the rest of the orbit.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .linalg import _as_index
from .switch import _LABELS, PermutationSet


def is_supersequence(sequence: str, perm: str):
    """Greedy-leftmost subsequence test; returns (ok, positions or None)."""
    pos = []
    start = 0
    for ch in perm:
        i = sequence.find(ch, start)
        if i < 0:
            return False, None
        pos.append(i)
        start = i + 1
    return True, tuple(pos)


@dataclass(frozen=True)
class SupersequenceResult:
    """A common supersequence with one greedy-leftmost embedding per
    permutation; ``length`` is certified minimal when produced by ``scs``."""

    sequence: str
    embeddings: tuple[tuple[int, ...], ...]
    perms: PermutationSet = field(repr=False)

    @property
    def length(self) -> int:
        return len(self.sequence)

    def __post_init__(self):
        words = self.perms.to_strings()
        if len(self.embeddings) != len(words):
            raise ValueError("one embedding per permutation required")
        for word, emb in zip(words, self.embeddings):
            if list(emb) != sorted(emb) or len(set(emb)) != len(emb):
                raise ValueError("embedding positions must strictly increase")
            if "".join(self.sequence[i] for i in emb) != word:
                raise ValueError(f"embedding does not spell {word!r}")


def embed_sequence(sequence: str, perms: PermutationSet) -> SupersequenceResult:
    """Wrap an externally chosen supersequence with greedy embeddings."""
    sequence = sequence.upper()
    embs = []
    for word in perms.to_strings():
        ok, emb = is_supersequence(sequence, word)
        if not ok:
            raise ValueError(f"{sequence!r} is not a supersequence of {word!r}")
        embs.append(emb)
    return SupersequenceResult(sequence, tuple(embs), perms)


_CHUNK = 128   # ordering sets per census batch; bounds the per-layer temporaries


def _delta_table(need, weights, n):
    """Key increments of a group of h orderings: row b*(n+1)**h + q, column s
    holds sum_k weights[k] over the orderings k whose progress digit q_k waits
    for symbol s, for ``need[B, h, n+1]`` as in ``_shortest_paths``: a broadcast
    sum of one one-hot block weights[k] * [need[b, k, q_k] == s] per digit."""
    batch, h, radix = need.shape
    table = np.zeros((batch,) + (radix,) * h + (n,), dtype=np.int64)
    for k in range(h):
        block = weights[k] * (need[:, k, :, None] == np.arange(n))   # [B, radix, n]
        table += block.reshape((batch,) + (1,) * k + (radix,) + (1,) * (h - 1 - k) + (n,))
    return table.reshape(-1, n)


def _shortest_paths(sigmas) -> list[list[int]]:
    """Symbols of the lexicographically smallest shortest common
    supersequence of each ordering set in ``sigmas[B, P, n]``.

    Layered BFS over all B sets at once.  State (b, progress) has the key
    b*(n+1)**P + sum_k progress_k*(n+1)**(P-1-k), an index into the dense
    mask ``seen``.  Appending symbol s adds (n+1)**(P-1-k) for every
    ordering k whose next required symbol is s; the two ``_delta_table``
    halves hold those sums, so the successors of a frontier are two row
    gathers.  Sorting the unseen successors by (key, position) keeps each
    new state's first occurrence in (frontier position, symbol) order, so
    every layer lists its states in the order a FIFO queue would discover
    them, and the first path to reach a goal is the lexicographically
    smallest shortest one.
    """
    sigmas = np.asarray(sigmas, dtype=np.int64)
    batch, n_perms, n = sigmas.shape
    radix = n + 1
    weights = radix ** np.arange(n_perms - 1, -1, -1, dtype=np.int64)
    # need[b, k, p]: the symbol ordering k of set b waits for at progress p;
    # n (no symbol) once the ordering is complete
    need = np.concatenate([sigmas, np.full((batch, n_perms, 1), n)], axis=2)
    split = n_perms // 2
    high = _delta_table(need[:, :split], weights[:split], n)
    low = _delta_table(need[:, split:], weights[split:], n)
    low_span = radix ** (n_perms - split)
    starts = np.arange(batch, dtype=np.int64) * radix ** n_perms
    goals = starts + n * weights.sum()
    lengths = np.where(goals == starts, 0, -1)  # n == 0: the empty sequence
    ends = np.zeros(batch, dtype=np.int64)      # each goal's index in its layer
    member = np.flatnonzero(lengths < 0)        # frontier: set and key
    keys = starts[member]
    origin = np.arange(len(member))             # frontier entry -> index in its layer
    seen = np.zeros(batch * radix ** n_perms, dtype=bool)  # untouched pages stay unmapped
    seen[starts] = True
    layers = []                                 # (parent index, symbol) per layer
    while len(member):
        row, rest = np.divmod(keys, low_span)   # row = b*radix**split + high progress
        cand = (keys[:, None] + high.take(row, axis=0)
                + low.take(member * low_span + rest, axis=0)).ravel()
        slot = np.flatnonzero(~seen[cand])      # a symbol that advances nothing stays on a seen key
        cand = cand[slot]
        count = len(cand)
        # by key, ties by position; keys * count stays far below 2**63 at the
        # scs and census sizes
        ranked = np.sort(cand * count + np.arange(count))
        key = ranked // count
        head = np.empty(count, dtype=bool)
        head[:1] = True
        np.not_equal(key[1:], key[:-1], out=head[1:])
        first = np.sort(ranked[head] % count)
        slot, keys = slot[first], cand[first]
        seen[keys] = True
        parent, symbol = np.divmod(slot, n)
        layers.append((origin[parent], symbol))
        member = member[parent]
        done = np.flatnonzero(keys == goals[member])
        origin = np.arange(len(keys))
        if len(done):                           # finished sets leave the frontier
            lengths[member[done]] = len(layers)
            ends[member[done]] = done
            origin = np.flatnonzero(lengths[member] < 0)
            member, keys = member[origin], keys[origin]
    symbols = np.zeros((batch, len(layers)), dtype=np.int64)
    for depth in range(len(layers), 0, -1):   # walk every path back from its goal
        on = np.flatnonzero(lengths >= depth)
        parent, symbol = layers[depth - 1]
        symbols[on, depth - 1] = symbol[ends[on]]
        ends[on] = parent[ends[on]]
    return [row[:length].tolist() for row, length in zip(symbols, lengths)]


def scs(perms: PermutationSet) -> SupersequenceResult:
    """Certified shortest common supersequence of the orderings, the
    lexicographically smallest among all shortest ones."""
    if perms.N > 6 or perms.P > 8:
        raise ValueError("limits exceeded: supports N <= 6 and P <= 8")
    (path,) = _shortest_paths([perms.sigma])
    sequence = "".join(_LABELS[s] for s in path)
    return embed_sequence(sequence, perms)


@dataclass(frozen=True)
class QuartetCensus:
    """Histogram of minimal supersequence lengths over permutation quartets."""

    histogram: dict[int, int]
    collected: tuple[tuple[str, ...], ...] = ()

    @property
    def total(self) -> int:
        return sum(self.histogram.values())


def _orbit_keys(quartets, perms):
    """Orbit key of each quartet of ordering indices (rows of ``quartets``,
    identity first, indices into ``perms``, the orderings in lexicographic
    order).  Relabeling by a member's inverse, with or without reversing
    every word first, keeps the minimal supersequence length and yields the
    <= 8 identity-containing images of a quartet; the key is the smallest
    image, sorted and read as a base-n! number."""
    count, n = perms.shape
    digits = n ** np.arange(n - 1, -1, -1)
    index = np.zeros(n ** n, dtype=np.int32)
    index[perms @ digits] = np.arange(count)
    compose = index[perms[:, perms] @ digits]     # compose[x, y]: y relabeled by x
    inverse = index[np.argsort(perms, axis=1) @ digits]
    reverse = index[perms[:, ::-1] @ digits]
    best = np.full(len(quartets), count ** 3)
    for rows in (quartets, reverse[quartets]):
        for anchor in range(rows.shape[1]):
            image = np.sort(compose[inverse[rows[:, anchor]][:, None], rows], axis=1)
            key = (image[:, 1] * count + image[:, 2]) * count + image[:, 3]
            np.minimum(best, key, out=best)
    return best


def quartet_census(n_labels: int = 4, collect: int | None = None) -> QuartetCensus:
    """Minimal-length histogram over all quartets of distinct orderings of
    ``n_labels`` labels (1 to 5) that contain the identity ordering.  Every
    quartet is a relabeling of one that contains the identity, and
    relabeling keeps the minimal length, so fixing the identity loses
    nothing.  Quartets that relabeling and reversal map onto each other
    share their length, so only the first quartet of each such orbit is
    searched, in batches of ``_CHUNK``.  ``collect`` optionally gathers the
    quartets of one specific length, in quartet order."""
    n_labels = _as_index(n_labels, "n_labels")
    collect = None if collect is None else _as_index(collect, "collect")
    if not 1 <= n_labels <= 5:
        raise ValueError(f"n_labels must be between 1 and 5, got {n_labels}")
    perms = np.array(list(itertools.permutations(range(n_labels))))
    trios = itertools.chain.from_iterable(itertools.combinations(range(1, len(perms)), 3))
    quartets = np.fromiter(trios, dtype=np.int32).reshape(-1, 3)
    quartets = np.concatenate([np.zeros((len(quartets), 1), dtype=np.int32), quartets], axis=1)
    _, first, orbit = np.unique(_orbit_keys(quartets, perms), return_index=True,
                                return_inverse=True)
    lengths = np.array([len(path) for lo in range(0, len(first), _CHUNK)
                        for path in _shortest_paths(perms[quartets[first[lo:lo + _CHUNK]]])],
                       dtype=np.int64)[orbit]
    values, counts = np.unique(lengths, return_counts=True)
    collected = ()
    if collect is not None:
        words = ["".join(_LABELS[j] for j in p) for p in perms]
        collected = tuple(tuple(words[i] for i in row) for row in quartets[lengths == collect])
    return QuartetCensus(dict(zip(values.tolist(), counts.tolist())), collected)
