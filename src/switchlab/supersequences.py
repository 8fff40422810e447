"""Shortest common supersequences of gate-order permutations.

The minimal supersequence length is the query cost of simulating the
controlled-ordering gate with a fixed-order circuit, so this module fixes
the query-complexity numbers: a breadth-first search over progress vectors
(one per permutation, each counting matched symbols) finds a certified
shortest supersequence, and a census over all four-permutation sets that
contain the identity ordering histograms the minimal lengths.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

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


def _shortest_path(sigma, n: int) -> list[int]:
    """Symbols of the lexicographically smallest shortest common
    supersequence of the rows of ``sigma`` (orderings of range(n)).

    BFS over progress vectors: appending symbol s advances every permutation
    whose next required symbol is s.  Expanding symbols in alphabetical order
    from a FIFO queue makes the first path reaching the goal the
    lexicographically smallest among all shortest ones.
    """
    # advance[s][k][pk]: progress of ordering k after appending symbol s
    advance = [[tuple(pk + 1 if pk < n and row[pk] == s else pk for pk in range(n + 1))
                for row in sigma] for s in range(n)]
    start = (0,) * len(sigma)
    goal = (n,) * len(sigma)
    parent: dict[tuple, tuple | None] = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state == goal:
            break
        for s, tables in enumerate(advance):
            new = tuple([t[pk] for t, pk in zip(tables, state)])
            if new not in parent:   # a symbol that advances nothing maps state to itself
                parent[new] = (state, s)
                queue.append(new)
    symbols = []
    cur = goal
    while parent[cur] is not None:
        cur, s = parent[cur]
        symbols.append(s)
    return symbols[::-1]


def scs(perms: PermutationSet) -> SupersequenceResult:
    """Certified shortest common supersequence of the orderings, the
    lexicographically smallest among all shortest ones."""
    if perms.N > 6 or perms.P > 8:
        raise ValueError("limits exceeded: supports N <= 6 and P <= 8")
    sequence = "".join(_LABELS[s] for s in _shortest_path(perms.sigma, perms.N))
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
    ``n_labels`` labels that contain the identity ordering (fixing the
    identity quotients out relabeling).  ``collect`` optionally gathers the
    quartets of one specific length."""
    ident = tuple(range(n_labels))
    others = [p for p in itertools.permutations(range(n_labels)) if p != ident]
    quartets = [(ident,) + trio for trio in itertools.combinations(others, 3)]
    hist: dict[int, int] = {}
    collected: list[tuple[str, ...]] = []
    for quartet in quartets:
        length = len(_shortest_path(quartet, n_labels))
        hist[length] = hist.get(length, 0) + 1
        if length == collect:
            collected.append(tuple(PermutationSet(quartet).to_strings()))
    return QuartetCensus(dict(sorted(hist.items())), len(quartets), tuple(collected))
