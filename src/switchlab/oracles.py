"""Promise verification, exhaustive gate-set enumeration and
conjugation-equivalence classification (the fixture tables are in ``switch``).

The promise is exact operator equality including global phase: every
ordering product must equal the reference product times an entry of the
sign matrix (+-1, or a root of unity for a Fourier matrix), the entries
forming one of its columns.  Enumeration iterates all ordered gate
assignments (labels matter) in lexicographic order, vectorized over
fixed-size slices of assignments; every ordering product is read from one
table of all gate words, built once.

Qubit gate sets equivalent under a common change of basis share a
canonical key.  With each gate written U = a I + b.sigma, conjugation fixes
a and turns Re b and Im b by one proper rotation, so the key is the scalars
plus the vectors' coordinates in a right-handed frame built from the vectors
themselves; the rotation between two frames, lifted to SU(2), certifies each
merge.  The phase-insensitive relation (the one relevant when the sets only
enter through their Choi projectors) uses the unit quaternion of
U/sqrt(det U) instead, free in sign only for half turns: the key is the least
over four frames K F, each half turn's leading coordinate made positive.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gates import SignMatrix, pauli
from .linalg import CONJUGATOR_TOL, DEGENERATE, KEY_DECIMALS, PROMISE_TOL, InvariantViolation
from .switch import OracleSet, PermutationSet, _products, all_products

_CHUNK = 4096   # assignments x distinct sign-matrix entries per vectorized batch
_MAX_WORDS = 2 ** 22   # gate words an enumeration may build: 256 MiB for qubit gates


def _promise_residuals(prods: np.ndarray, m: SignMatrix) -> np.ndarray:
    """Worst deviation of the ordering products ``prods[..., P, d, d]`` from
    ``m.entries[x, y]`` times the reference product, per column y: shape
    ``[..., Y]``.  Each ordering's distance to each distinct entry times the
    reference (two for +-1 entries) is taken once."""
    ref = prods[..., :1, None, :, :]
    dist = np.max(np.abs(prods[..., None, :, :] - m._distinct[:, None, None] * ref), axis=(-2, -1))
    return np.max(dist.reshape(*dist.shape[:-2], -1)[..., m._lookup], axis=-2)


@dataclass(frozen=True)
class PromiseVerdict:
    satisfied: bool
    y: int | None
    residual: float


def check_promise(oracle: OracleSet, perms: PermutationSet, m: SignMatrix) -> PromiseVerdict:
    """Test whether every ordering product equals entry * reference product
    for the entries of some column; returns the smallest such column."""
    if m.P != perms.P:
        raise ValueError("sign-matrix order does not match the permutation set")
    residuals = _promise_residuals(all_products(oracle, perms), m)
    hits = np.flatnonzero(residuals <= PROMISE_TOL)
    if hits.size:
        y = int(hits[0])
        return PromiseVerdict(True, y, float(residuals[y]))
    return PromiseVerdict(False, None, float(residuals.min()))


@dataclass(frozen=True)
class EnumerationCensus:
    per_column: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.per_column)


def _gate_words(mats: np.ndarray, n: int) -> np.ndarray:
    """Every product of n gates from ``mats[G, d, d]``, shape ``[G**n, d, d]``:
    the word q_0 ... q_{n-1} sits at index sum_j q_j G**(n-1-j) and equals
    mats[q_0] @ (mats[q_1] @ (... @ mats[q_{n-1}])), associated as
    ``_ordering_products`` associates its factors."""
    words = mats
    for _ in range(n - 1):
        words = (mats[:, None] @ words[None]).reshape(-1, *mats.shape[1:])
    return words


def _word_products(words: np.ndarray, g: int, assignments: np.ndarray,
                   sigma: np.ndarray) -> np.ndarray:
    """The products of gate assignments ``assignments[C, N]`` (indices into g
    gates) in every ordering of ``sigma[P, N]``, read from the word table of
    ``_gate_words``: shape ``[C, P, d, d]``.  An ordering's first gate acts
    first, so it is its word's last letter."""
    place = g ** np.arange(sigma.shape[1] - 1, -1, -1)
    return words[assignments[:, sigma[:, ::-1]] @ place]


def enumerate_promise_sets(gates, perms: PermutationSet, m: SignMatrix):
    """Check every ordered assignment of the given gates to the N slots.

    Returns (census, sets); each satisfying assignment becomes an OracleSet
    carrying its verified column, in lexicographic order of the assignment.
    """
    if m.P != perms.P:
        raise ValueError("sign-matrix order does not match the permutation set")
    gates = list(gates)
    if not gates:
        raise ValueError("gate list must be nonempty")
    if len(gates) ** perms.N > _MAX_WORDS:
        raise ValueError(f"{len(gates)} gates in {perms.N} slots make {len(gates) ** perms.N} "
                         f"gate words, more than the {_MAX_WORDS} an enumeration may build")
    mats = np.stack([g.matrix for g in gates])
    words = _gate_words(mats, perms.N)
    shape = (len(gates),) * perms.N
    counts = np.zeros(m.P, dtype=np.int64)
    sets: list[OracleSet] = []
    step = max(1, _CHUNK // len(m._distinct))   # a batch holds _CHUNK product-sized distances
    for start in range(0, len(words), step):
        rows = np.arange(start, min(start + step, len(words)))   # no table of all assignments
        q = np.stack(np.unravel_index(rows, shape), axis=1)
        prods = _word_products(words, len(gates), q, perms.index)
        ok = _promise_residuals(prods, m) <= PROMISE_TOL
        hits = np.flatnonzero(ok.any(axis=1))
        for c, pis in zip(hits, prods[hits]):   # bit for bit what _products would build
            y = int(np.argmax(ok[c]))   # smallest satisfied column
            counts[y] += 1
            sets.append(OracleSet(tuple(gates[i] for i in q[c]), claimed_y=y))
            _products(sets[-1], perms, known=pis)
    return EnumerationCensus(tuple(int(c) for c in counts)), sets


# ---------------------------------------------------------------------------
# Conjugation equivalence
# ---------------------------------------------------------------------------

_PAULI_VEC = np.stack([pauli(n).matrix for n in "XYZ"])
_TAU = np.stack([pauli(n).matrix for n in "IXYZ"])
# flattened u @ _TAU_DUAL = (tr tau_mu u)_mu; with u = c . tau, the Bloch
# rotation is R_ab = Re sum c_mu c_nu^* tr(sigma_a tau_mu sigma_b tau_nu) / 2
_TAU_DUAL = _TAU.swapaxes(1, 2).reshape(4, 4).T
_ROTATION_FORM = np.einsum("aij,mjk,bkl,nli->mnab", _PAULI_VEC, _TAU, _PAULI_VEC,
                           _TAU).reshape(16, 9) / 2
# T(tau_e) of _su2_lift is tau_e + sum_jk o[j, k] sigma_j tau_e sigma_k
_LIFT_FORM = np.einsum("jab,ebc,kcd->jkead", _PAULI_VEC, _TAU, _PAULI_VEC).reshape(9, 16)


def _pauli_coefficients(mats: np.ndarray) -> np.ndarray:
    """Coefficients ``[..., 4]`` of ``mats[..., 2, 2]`` in the basis (I, X, Y, Z)."""
    return (mats.reshape(-1, 4) @ _TAU_DUAL / 2).reshape(*mats.shape[:-2], 4)


def bloch_rotation(u: np.ndarray) -> np.ndarray:
    """Rotation induced on the Pauli basis by conjugation with u (phase-free);
    a stack of unitaries ``[..., 2, 2]`` gives a stack ``[..., 3, 3]``."""
    c = _pauli_coefficients(np.asarray(u, dtype=complex))
    pairs = (c[..., :, None] * c[..., None, :].conj()).reshape(*c.shape[:-1], 16)
    return (pairs @ _ROTATION_FORM).real.reshape(*c.shape[:-1], 3, 3)


def _first_long(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``vecs[R, M, 3]``: the first long vector, normalized, and whether one exists."""
    norms = np.linalg.norm(vecs, axis=-1)
    rows, j = np.arange(len(vecs)), np.argmax(norms > DEGENERATE, axis=1)
    return (vecs[rows, j] / np.maximum(norms[rows, j], DEGENERATE)[:, None],
            norms[rows, j] > DEGENERATE)


def _canonical(units: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keys and right-handed frames (rows e1, e2, e3) of the sets
    ``units[S, M, 4]``, a scalar and a vector per unit; ``half[S, M]`` marks
    the half turns, whose sign is free.  A frame's key is each unit's scalar
    and frame coordinates, half turns with a negative leading coordinate
    negated, rounded; a set keeps the first smallest of its four frames' keys."""
    vecs = units[..., 1:]
    e1, found = _first_long(vecs)
    e1[~found] = (1.0, 0.0, 0.0)    # all-scalar sets: the identity frame
    e2, found = _first_long(vecs - (vecs @ e1[:, :, None]) * e1[:, None, :])
    axis = np.eye(3)[np.argmin(np.abs(e1), axis=1)]    # collinear sets: a fixed completion
    fill = axis - np.sum(axis * e1, axis=1, keepdims=True) * e1
    e2[~found] = fill[~found] / np.linalg.norm(fill[~found], axis=1, keepdims=True)
    frames = np.stack([e1, e2, np.cross(e1, e2)], axis=1)
    # flipping the vectors behind e1 and e2 permutes the four K F, det K = 1
    k = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)], dtype=float)
    frames = (k[:, :, None] * frames[:, None]).reshape(-1, 3, 3)   # set s: rows 4s..4s+3
    rows = np.repeat(units, 4, axis=0)
    rows[..., 1:] = rows[..., 1:] @ frames.swapaxes(1, 2)
    # a half turn has unit length, so one coordinate reaches 1/sqrt(3)
    lead = np.argmax(np.abs(rows[..., 1:]) > DEGENERATE, axis=-1)
    lead = np.take_along_axis(rows[..., 1:], lead[..., None], axis=-1)[..., 0]
    rows[np.repeat(half, 4, axis=0) & (lead < 0)] *= -1.0
    keys = np.round(rows.reshape(len(rows), -1), KEY_DECIMALS)
    best = np.lexsort((*keys.T[::-1], np.arange(len(rows)) // 4))[::4]   # stable: first of equal
    return keys[best], frames[best]


def _canonical_forms(mats: np.ndarray, phase_sensitive: bool) -> tuple:
    """Keys ``[S, K]``, frames ``[S, 3, 3]`` and what a certificate must map
    (the gates ``mats[S, N, 2, 2]``, or their Bloch rotations when phases are
    ignored), from four frames per set; only half turns, which occur only
    when phases are ignored, take the leading-coordinate sign."""
    if mats.shape[-2:] != (2, 2):
        raise ValueError("equivalence classification expects qubit gates")
    coef = _pauli_coefficients(mats)
    if phase_sensitive:
        units, mapped = np.stack([coef.real, coef.imag], axis=2).reshape(len(mats), -1, 4), mats
        half = np.zeros(units.shape[:2], dtype=bool)
    else:
        # U/sqrt(det U) = q0 I - i q.sigma with q0 >= 0; a half turn (q0 = 0)
        # has no such sign, so _canonical fixes it in each frame
        coef = coef / np.sqrt(np.linalg.det(mats))[..., None]
        units = np.concatenate([coef[..., :1].real, -coef[..., 1:].imag], axis=-1)
        units *= np.where(units[..., :1] < 0, -1.0, 1.0)
        half, mapped = np.abs(units[..., 0]) <= DEGENERATE, bloch_rotation(mats)
    return (*_canonical(units, half), mapped)


def _su2_lift(o: np.ndarray) -> np.ndarray:
    """Unitaries V ``[B, 2, 2]`` whose Bloch rotations are the proper
    rotations ``o[B, 3, 3]``: with V sigma_k V^dag = sum_j o[j, k] sigma_j,
    each T(E) = sum_mu (V tau_mu V^dag) E tau_mu equals 2 tr(V^dag E) V."""
    t = _TAU + (o.reshape(-1, 1, 9) @ _LIFT_FORM).reshape(-1, 4, 2, 2)
    best = t[np.arange(len(t)), np.argmax(np.linalg.norm(t, axis=(2, 3)), axis=1)]
    return best / np.sqrt(np.linalg.det(best))[:, None, None]


def _conjugation_errors(c: np.ndarray, reps: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Per pair, how far ``c[B]`` falls short of mapping ``reps[B, N]`` onto ``members[B, N]``."""
    c = c[:, None]
    return np.max(np.abs(c @ reps @ c.conj().swapaxes(-1, -2) - members), axis=(1, 2, 3))


def _certificates(rep_frames: np.ndarray, member_frames: np.ndarray, reps: np.ndarray,
                  members: np.ndarray, phase_sensitive: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per pair, the conjugator that carries the representative's frame onto
    the member's, and its conjugation error."""
    c = member_frames.swapaxes(1, 2) @ rep_frames
    if phase_sensitive:
        c = _su2_lift(c)
    return c, _conjugation_errors(c, reps, members)


@dataclass(frozen=True)
class EquivalenceClassification:
    """Partition of the input sets; ``classes`` holds input indices, the
    first index of each class is its representative.  Every other member
    has in ``conjugators`` a verified conjugator from its representative:
    a unitary, or a proper rotation when phases are ignored."""

    classes: tuple[tuple[int, ...], ...]
    phase_sensitive: bool
    conjugators: dict[int, np.ndarray] = field(repr=False, default_factory=dict)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def _by_shape(shapes: list[tuple]) -> list[list[int]]:
    """Positions of equal shapes, grouped in order of first appearance."""
    groups: dict[tuple, list[int]] = {}
    for n, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(n)
    return list(groups.values())


def equivalence_classes(sets, phase_sensitive: bool = True) -> EquivalenceClassification:
    """Group oracle sets that a single change of basis maps onto each other.

    phase_sensitive=True demands exact equality including global phases;
    phase_sensitive=False quotients out per-gate phases by comparing the
    induced Bloch rotations instead.  Each set joins the first class with
    its canonical key whose representative the frame-built conjugator maps
    onto it within CONJUGATOR_TOL.
    """
    stacks = [s.matrices() for s in sets]
    forms: list[tuple] = [()] * len(stacks)
    for idx in _by_shape([m.shape for m in stacks]):   # keys of different shapes never coincide
        keys, frames, mapped = _canonical_forms(np.stack([stacks[i] for i in idx]), phase_sensitive)
        keys = list(map(tuple, keys.tolist()))
        first: dict[tuple, int] = {}
        rep = [first.setdefault(key, j) for j, key in enumerate(keys)]
        # every set tries the first set with its key, all in one batch
        tries = _certificates(frames[rep], frames, mapped[rep], mapped, phase_sensitive)
        for i, form in zip(idx, zip(keys, frames, mapped, *tries)):
            forms[i] = form
    by_key: dict[tuple, list[int]] = {}   # canonical key -> indices into classes
    classes: list[list[int]] = []
    conjugators: dict[int, np.ndarray] = {}
    for i, (key, frame, image, c, err) in enumerate(forms):
        for n, k in enumerate(by_key.get(key, ())):
            if n:   # a later class with this key: try its representative instead
                _, rep_frame, rep_image, *_ = forms[classes[k][0]]
                (c,), (err,) = _certificates(rep_frame[None], frame[None], rep_image[None],
                                             image[None], phase_sensitive)
            if err <= CONJUGATOR_TOL:
                classes[k].append(i)
                conjugators[i] = c
                break
        else:
            by_key.setdefault(key, []).append(len(classes))
            classes.append([i])
    return EquivalenceClassification(tuple(map(tuple, classes)), phase_sensitive, conjugators)


def verify_classification(classification: EquivalenceClassification, sets) -> None:
    """Re-verify every recorded merge: its certificate must be unitary (a
    proper rotation when phases are ignored) and must map the class
    representative onto the member.  Raises InvariantViolation for the first
    failing merge in class order."""
    strict = classification.phase_sensitive
    stacks = [s.matrices() for s in sets]
    merges = [(cls[0], i) for cls in classification.classes for i in cls[1:]]
    if not merges:
        return
    certs = np.stack([classification.conjugators[i] for _, i in merges])
    defect = np.max(np.abs(certs @ certs.conj().swapaxes(1, 2) - np.eye(certs.shape[1])),
                    axis=(1, 2))
    if not strict:
        defect = np.maximum(defect, np.abs(np.linalg.det(certs) - 1.0))
    err = np.empty(len(merges))
    for ns in _by_shape([stacks[i].shape for _, i in merges]):
        reps, members = (np.stack([stacks[merges[n][side]] for n in ns]) for side in (0, 1))
        if not strict:
            reps, members = bloch_rotation(reps), bloch_rotation(members)
        err[ns] = _conjugation_errors(certs[ns], reps, members)
    failed = np.flatnonzero(~(np.maximum(defect, err) <= CONJUGATOR_TOL))   # NaN fails too
    if failed.size:
        n = failed[0]
        raise InvariantViolation(
            f"merge of set {merges[n][1]} into class of {merges[n][0]} fails verification "
            f"(certificate defect {defect[n]:.2e}, conjugation error {err[n]:.2e})")
