"""Shortest common supersequences of gate-order permutations.

The minimal supersequence length is the query cost of simulating the
controlled-ordering gate with a fixed-order circuit, so this module fixes
the query-complexity numbers.  One search serves both ``scs`` and the
census: a layered breadth-first search over progress vectors (one entry per
ordering, counting its matched symbols), run on a batch of ordering sets of
one shape at once.

* A state of set b is one integer, b*(n+1)**P + sum_k p_k*(n+1)**(P-1-k),
  so a batch shares one sorted array of reached keys.
* Each layer gathers every ordering's next required symbol, forms the
  successors under all n symbols at once and keeps the states not reached
  before.
* Tie-break: a new state keeps its first occurrence in (frontier position,
  symbol) order, the order a FIFO queue expanding symbols alphabetically
  would find it.  The path read back from the goal is therefore the
  lexicographically smallest shortest supersequence.

``scs`` searches one set and certifies its result with explicit embeddings;
``quartet_census`` searches all identity-containing quartets in batches and
histograms the minimal lengths.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

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
    length: int
    embeddings: tuple[tuple[int, ...], ...]
    perms: PermutationSet = field(repr=False)

    def __post_init__(self):
        if self.length != len(self.sequence):
            raise ValueError("length field disagrees with the sequence")
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
    return SupersequenceResult(sequence, len(sequence), tuple(embs), perms)


_CHUNK = 128   # ordering sets per census batch; bounds the per-layer temporaries


def _shortest_paths(sigmas) -> list[list[int]]:
    """Symbols of the lexicographically smallest shortest common
    supersequence of each ordering set in ``sigmas[B, P, n]``.

    Layered BFS over all B sets at once.  State (b, progress) has the key
    b*(n+1)**P + sum_k progress_k*(n+1)**(P-1-k); appending symbol s adds
    (n+1)**(P-1-k) for every ordering k whose next required symbol is s.
    Each new state keeps its first occurrence in (frontier position, symbol)
    order, so every layer lists its states in the order a FIFO queue would
    discover them, and the first path to reach a goal is the
    lexicographically smallest shortest one.
    """
    sigmas = np.asarray(sigmas, dtype=np.int64)
    batch, n_perms, n = sigmas.shape
    weights = (n + 1) ** np.arange(n_perms - 1, -1, -1, dtype=np.int64)
    # need[b, k*(n+1) + p]: the symbol ordering k of set b waits for at progress p
    need = np.concatenate([sigmas, np.full((batch, n_perms, 1), -1)], axis=2).reshape(batch, -1)
    rows = np.arange(n_perms) * (n + 1)
    starts = np.arange(batch, dtype=np.int64) * (n + 1) ** n_perms
    goals = starts + n * weights.sum()
    lengths = np.where(goals == starts, 0, -1)  # n == 0: the empty sequence
    ends = np.zeros(batch, dtype=np.int64)      # each goal's index in its layer
    member = np.flatnonzero(lengths < 0)        # frontier: set, key, progress
    keys = starts[member]
    progress = np.zeros((len(member), n_perms), dtype=np.int64)
    origin = np.arange(len(member))             # frontier entry -> index in its layer
    seen = np.sort(starts)
    layers = []                                 # (parent index, symbol) per layer
    while len(member):
        nxt = need[member[:, None], rows + progress]
        delta = np.stack([(nxt == s) @ weights for s in range(n)], axis=1).ravel()
        slot = np.flatnonzero(delta)            # drop symbols that advance nothing
        cand = np.repeat(keys, n)[slot] + delta[slot]
        pos = np.minimum(np.searchsorted(seen, cand), len(seen) - 1)
        unseen = seen[pos] != cand
        slot, cand = slot[unseen], cand[unseen]
        fresh, first = np.unique(cand, return_index=True)
        seen = np.sort(np.concatenate([seen, fresh]), kind="stable")  # merges two sorted runs
        first.sort()
        slot, keys = slot[first], cand[first]
        parent, symbol = slot // n, slot % n
        layers.append((origin[parent], symbol))
        member = member[parent]
        progress = progress[parent] + (nxt[parent] == symbol[:, None])
        done = np.flatnonzero(keys == goals[member])
        lengths[member[done]] = len(layers)
        ends[member[done]] = done
        live = np.flatnonzero(lengths[member] < 0)
        member, keys, progress, origin = member[live], keys[live], progress[live], live
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
    total: int
    collected: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self):
        if self.total != sum(self.histogram.values()):
            raise ValueError("total disagrees with the histogram")


def quartet_census(n_labels: int = 4, collect: int | None = None) -> QuartetCensus:
    """Minimal-length histogram over all quartets of distinct orderings of
    ``n_labels`` labels (1 to 5) that contain the identity ordering.  Every
    quartet is a relabeling of one that contains the identity, and
    relabeling keeps the minimal length, so fixing the identity loses
    nothing.  The quartets are searched in batches of ``_CHUNK``.
    ``collect`` optionally gathers the quartets of one specific length."""
    if not 1 <= n_labels <= 5:
        raise ValueError(f"n_labels must be between 1 and 5, got {n_labels}")
    ident = tuple(range(n_labels))
    others = [p for p in itertools.permutations(range(n_labels)) if p != ident]
    quartets = [(ident,) + trio for trio in itertools.combinations(others, 3)]
    hist: dict[int, int] = {}
    collected: list[tuple[str, ...]] = []
    for lo in range(0, len(quartets), _CHUNK):
        chunk = quartets[lo:lo + _CHUNK]
        for quartet, path in zip(chunk, _shortest_paths(chunk)):
            hist[len(path)] = hist.get(len(path), 0) + 1
            if len(path) == collect:
                collected.append(tuple(PermutationSet(quartet).to_strings()))
    return QuartetCensus(dict(sorted(hist.items())), len(quartets), tuple(collected))
