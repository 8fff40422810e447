"""Shortest common supersequences of gate-order permutations.

The minimal supersequence length is the query cost of simulating the
controlled-ordering gate with a fixed-order circuit, so this module fixes
the query-complexity numbers.  One search serves both ``scs`` and the
census: a layered breadth-first search over progress vectors (one entry per
ordering, counting its matched symbols), run on a batch of ordering sets of
one shape at once.

* The orderings are split into a high and a low half.  A state of set b
  is one integer, (high * B + b) * (n+1)**(P - P//2) + low, where high and
  low read each half's progress entries as base-(n+1) digits, and an index
  into one dense boolean mask of reached states (allocated zeroed, so only
  the pages the search touches are mapped).
* A table per half, with one row per set and digits of that half, holds
  the row's part of the key plus the key increment of every symbol, so a
  layer forms the successors of every state under all n symbols with two
  row gathers and one add, and keeps the ones the mask has not seen.
* Tie-break: a new state keeps its first occurrence in (frontier position,
  symbol) order, the order a FIFO queue expanding symbols alphabetically
  would find it; one sort by (key, position) finds the first occurrences
  and a second sort of their positions lists the layer.  The path read
  back from the goal is therefore the lexicographically smallest shortest
  supersequence.

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
            positions = sorted(set(emb))
            if list(emb) != positions:
                raise ValueError("embedding positions must strictly increase")
            if positions and not (0 <= positions[0] and positions[-1] < self.length):
                raise ValueError(f"embedding positions must lie inside [0, {self.length})")
            if "".join(map(self.sequence.__getitem__, emb)) != word:
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
_MAX_KEYS = 2 ** 26   # states one search may key: a 64 MiB mask, room for 8 orderings of 8 labels


def _delta_table(blocks):
    """Table of a group of h orderings from one block per ordering,
    ``blocks[B, h, n+1, n]`` indexed by set, ordering, progress digit q and
    symbol s (as built in ``_shortest_paths``): row b*(n+1)**h + q, column s
    holds sum_k blocks[b, k, q_k, s], a broadcast sum of one block per digit."""
    batch, h, radix, n = blocks.shape
    table = np.zeros((batch,) + (radix,) * h + (n,), dtype=np.int64)
    for k in range(h):
        table += blocks[:, k].reshape((batch,) + (1,) * k + (radix,) + (1,) * (h - 1 - k) + (n,))
    return table.reshape(-1, n)


def _shortest_paths(sigmas) -> list[list[int]]:
    """Symbols of the lexicographically smallest shortest common
    supersequence of each ordering set in ``sigmas[B, P, n]``.

    Layered BFS over all B sets at once.  State (b, progress) has the key
    (high * B + b) * low_span + low, with low_span = (n+1)**(P - P//2), an
    index into the dense mask ``seen``; key // low_span and
    key % (B * low_span) are its rows of the high and low ``_delta_table``,
    whose sum is the key of each of its n successors.

    One layer step sorts the unseen successors in place by
    key * M + position (M successors, n per frontier state, in symbol
    order).  The head of each run of equal keys is a new state at its first
    occurrence in (frontier position, symbol) order, and sorting the heads'
    positions lists the layer in the order a FIFO queue would discover it,
    so the first path to reach a goal is the lexicographically smallest
    shortest one.  A layer is just those positions (position // n is the
    parent, position % n the symbol), read back from each goal.  Nothing
    prunes the frontier: a finished set's goal is new in one layer only, and
    later layers never touch the positions its path recorded.

    More than ``_MAX_KEYS`` = 2**26 states, B * (n+1)**P, are refused before
    ``seen`` is allocated.  So every key is below 2**26 and M <= n * 2**26,
    and key * M + position < n * (2**52 + 2**26) < 2**63 for any n < 2**11
    labels (a ``PermutationSet`` holds at most 8).
    """
    sigmas = np.asarray(sigmas, dtype=np.int64)
    batch, n_perms, n = sigmas.shape
    radix = n + 1
    if batch * radix ** n_perms > _MAX_KEYS:
        raise ValueError(f"a search over {batch * radix ** n_perms} states exceeds "
                         f"the {_MAX_KEYS} one search may key")
    split = n_perms // 2
    low_span = radix ** (n_perms - split)
    block = batch * low_span                    # keys per value of the high half
    weights = radix ** np.arange(n_perms - 1, -1, -1, dtype=np.int64)
    weights[:split] *= batch                    # a high digit steps over whole blocks
    # need[b, k, p]: the symbol ordering k of set b waits for at progress p;
    # n (no symbol) once the ordering is complete
    need = np.concatenate([sigmas, np.full((batch, n_perms, 1), n)], axis=2)
    # blocks[b, k, q, s] = weights[k] * (q + [need[b, k, q] == s]): summed over
    # the digits of a row, a state's part of the key plus each symbol's increment
    blocks = ((need[..., None] == np.arange(n)) + np.arange(radix)[:, None]) * weights[:, None, None]
    keys = np.arange(0, block, low_span, dtype=np.int64)     # the start of every set
    goals = keys + n * weights.sum()
    # high: row high * B + b; low: row b * low_span + low, plus the set's part b * low_span
    high = _delta_table(blocks[:, :split]).reshape(batch, -1, n).swapaxes(0, 1).reshape(-1, n)
    low = _delta_table(blocks[:, split:]).reshape(batch, -1)
    low += keys[:, None]
    low = low.reshape(-1, n)
    seen = np.zeros(batch * radix ** n_perms, dtype=bool)    # untouched pages stay unmapped
    seen[keys] = True
    lengths = np.zeros(batch, dtype=np.int64)
    ends = np.zeros(batch, dtype=np.int64)      # each goal's index in its layer
    layers = []                                 # successor positions per layer
    finished = 0
    while True:
        reached = np.count_nonzero(seen[goals])
        if reached > finished:                  # a goal is new in exactly one layer
            member = keys // low_span % batch
            done = (keys == goals[member]).nonzero()[0]
            lengths[member[done]] = len(layers)
            ends[member[done]] = done
            finished = reached
            if finished == batch:
                break
        cand = high.take(keys // low_span, axis=0)
        cand += low.take(keys % block, axis=0)
        cand = cand.ravel()
        span = len(cand)
        slot = (~seen[cand]).nonzero()[0]       # a symbol that advances nothing stays on a seen key
        ranked = cand[slot]                     # by key, ties by position
        ranked *= span
        ranked += slot
        ranked.sort()
        sorted_keys = ranked // span
        head = np.empty(len(ranked), dtype=bool)
        head[:1] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
        first = ranked[head]
        first %= span
        first.sort()
        keys = cand[first]
        seen[keys] = True
        layers.append(first)
    paths = []                                  # walk every path back from its goal
    for length, at in zip(lengths.tolist(), ends.tolist()):
        path = []
        for positions in reversed(layers[:length]):
            at, symbol = divmod(positions.item(at), n)
            path.append(symbol)
        paths.append(path[::-1])
    return paths


def scs(perms: PermutationSet) -> SupersequenceResult:
    """Certified shortest common supersequence of the orderings, the
    lexicographically smallest among all shortest ones."""
    (path,) = _shortest_paths(perms.index[None])
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
