"""Promise verification, exhaustive gate-set enumeration, bundled fixture
tables, and conjugation-equivalence classification.

The promise is exact operator equality including global phase: every
ordering product must equal a +-1 multiple of the reference product, with
the signs forming one column of the sign matrix.  Enumeration iterates all
ordered gate assignments (labels matter) in lexicographic order, vectorized
over fixed-size slices of assignments.

Qubit gate sets equivalent under a common change of basis share a
canonical key.  With each gate written U = a I + b.sigma, conjugation fixes
a and turns Re b and Im b by one proper rotation, so the key is the scalars
plus the vectors' coordinates in a right-handed frame built from the vectors
themselves; the rotation between two frames, lifted to SU(2), certifies each
merge.  The phase-insensitive relation (the one relevant when the sets only
enter through their Choi projectors) uses the unit quaternion of
U/sqrt(det U) instead, whose sign is free only for half turns.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gates import NamedGate, SignMatrix, pauli
from .linalg import InvariantViolation
from .switch import OracleSet, PermutationSet, _ordering_products, all_products

PROMISE_TOL = 1e-9
_CHUNK = 4096   # assignments checked per vectorized batch


def _promise_residuals(prods: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Worst deviation of the ordering products ``prods[..., P, d, d]`` from
    ``signs[x, y]`` times the reference product, per column y: shape
    ``[..., Y]``."""
    ref = prods[..., :1, :, :]
    return np.stack([np.max(np.abs(prods - col[:, None, None] * ref), axis=(-3, -2, -1))
                     for col in signs.T], axis=-1)


@dataclass(frozen=True)
class PromiseVerdict:
    satisfied: bool
    y: int | None
    residual: float


def check_promise(oracle: OracleSet, perms: PermutationSet, m: SignMatrix,
                  tol: float = PROMISE_TOL) -> PromiseVerdict:
    """Test whether every ordering product equals sign * reference product
    for the signs of some column; returns the smallest such column."""
    if m.P != perms.P:
        raise ValueError("sign-matrix order does not match the permutation set")
    residuals = _promise_residuals(all_products(oracle, perms), m.entries.astype(float))
    hits = np.flatnonzero(residuals <= tol)
    if hits.size:
        y = int(hits[0])
        return PromiseVerdict(True, y, float(residuals[y]))
    return PromiseVerdict(False, None, float(residuals.min()))


@dataclass(frozen=True)
class EnumerationCensus:
    total: int
    per_column: tuple[int, ...]

    def __post_init__(self):
        if self.total != sum(self.per_column):
            raise ValueError("total disagrees with per-column counts")


def enumerate_promise_sets(gates, perms: PermutationSet, m: SignMatrix,
                           tol: float = PROMISE_TOL):
    """Check every ordered assignment of the given gates to the N slots.

    Returns (census, sets); each satisfying assignment becomes an OracleSet
    carrying its verified column, in lexicographic order of the assignment.
    """
    if m.P != perms.P:
        raise ValueError("sign-matrix order does not match the permutation set")
    gates = list(gates)
    if not gates:
        raise ValueError("gate list must be nonempty")
    mats = np.stack([g.matrix for g in gates])
    signs = m.entries.astype(float)
    combos = np.indices((len(gates),) * perms.N).reshape(perms.N, -1).T
    counts = np.zeros(m.P, dtype=np.int64)
    sets: list[OracleSet] = []
    for start in range(0, len(combos), _CHUNK):
        q = combos[start:start + _CHUNK]
        ok = _promise_residuals(_ordering_products(mats[q], perms.index), signs) <= tol
        for c in np.flatnonzero(ok.any(axis=1)):
            y = int(np.argmax(ok[c]))   # smallest satisfied column
            counts[y] += 1
            sets.append(OracleSet(tuple(gates[i] for i in q[c]), claimed_y=y))
    census = EnumerationCensus(int(counts.sum()), tuple(int(c) for c in counts))
    return census, sets


# ---------------------------------------------------------------------------
# Fixture tables
# ---------------------------------------------------------------------------

_TABLE1 = [
    ("I", "X", "I", "X"),
    ("Z", "X", "Z", "X"),
    ("I", "X", "Z", "X"),
    ("Z", "X", "I", "X"),
]

_TABLE2_HEAD = [
    (None, None, "I", "I"),   # column 0 uses the bisector gate, filled below
    ("I", "X", "Z", "I"),
    ("Z", "X", "I", "I"),
    ("Z", "X", "I", "X"),
]

_THIRTY_ROWS = {
    "A": "1 1 1 Z 1 1 Z 1 Z Z 1 Z Z Z Z Z 1 Z Z Z Z Z 1 Z Z Z 1 Z Z Z",
    "B": "1 1 Z 1 1 Z 1 Z 1 Z Z 1 Z Z Z X Z 1 Z X X X Z 1 X Z 1 X X X",
    "C": "1 Z 1 1 Z 1 1 Z Z 1 Z Z 1 Z Z X X 1 X Z X Y X Z 1 X Z 1 Z Y",
    "D": "Z 1 1 1 Z Z Z 1 1 1 Z Z Z 1 Z Z 1 X X X Y Z Z X 1 Y X X 1 Y",
}
_THIRTY_Y = [0] * 16 + [1] * 6 + [2] * 4 + [3] * 4


def _bisector_zx() -> NamedGate:
    z, x = pauli("Z").matrix, pauli("X").matrix
    return NamedGate("(Z+X)/sqrt2", (z + x) / np.sqrt(2.0))


def chart_fixture(which: str) -> list[OracleSet]:
    """Bundled demonstration oracles, one OracleSet per column with its
    verified y: 'table1' (orthogonal Pauli-type columns), 'table2' (includes
    a non-orthogonal column), 'thirty' (the 30 Pauli-only witness sets)."""
    if which == "table1":
        return [
            OracleSet(tuple(pauli(n) for n in names), claimed_y=y)
            for y, names in enumerate(_TABLE1)
        ]
    if which == "table2":
        out = [OracleSet((_bisector_zx(), _bisector_zx(), pauli("I"), pauli("I")),
                         claimed_y=0)]
        for y, names in enumerate(_TABLE2_HEAD[1:], start=1):
            out.append(OracleSet(tuple(pauli(n) for n in names), claimed_y=y))
        return out
    if which == "thirty":
        rows = {k: v.split() for k, v in _THIRTY_ROWS.items()}
        out = []
        for k in range(30):
            gates = tuple(pauli(rows[lab][k]) for lab in "ABCD")
            out.append(OracleSet(gates, claimed_y=_THIRTY_Y[k]))
        return out
    raise ValueError(f"unknown fixture {which!r}; use table1, table2 or thirty")


# ---------------------------------------------------------------------------
# Conjugation equivalence
# ---------------------------------------------------------------------------

CONJUGATOR_TOL = 1e-8   # certificates may miss exact conjugation by this; float error is ~1e-15
_KEY_DECIMALS = 8       # float noise never splits a rounded key; every merge is verified anyway
_DEGENERATE = 1e-6      # shorter vectors span no frame axis; |q0| below it marks a half turn

_PAULI_VEC = np.stack([pauli(n).matrix for n in "XYZ"])
_TAU = np.stack([pauli(n).matrix for n in "IXYZ"])


def bloch_rotation(u: np.ndarray) -> np.ndarray:
    """Rotation induced on the Pauli basis by conjugation with u (phase-free);
    a stack of unitaries ``[..., 2, 2]`` gives a stack ``[..., 3, 3]``."""
    u = np.asarray(u)[..., None, :, :]
    images = u @ _PAULI_VEC @ u.conj().swapaxes(-1, -2)    # u sigma_b u^dag
    return np.einsum("aij,...bji->...ab", _PAULI_VEC, images).real / 2.0


def _first_long(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``vecs[P, M, 3]``: the first long vector, normalized, and whether one exists."""
    norms = np.linalg.norm(vecs, axis=-1)
    rows, j = np.arange(len(vecs)), np.argmax(norms > _DEGENERATE, axis=1)
    return (vecs[rows, j] / np.maximum(norms[rows, j], _DEGENERATE)[:, None],
            norms[rows, j] > _DEGENERATE)


def _canonical(rows: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Key and right-handed frame (rows e1, e2, e3) from the P sign choices
    ``rows[P, M, 4]`` of a set, each row a scalar and a vector: the key is
    the scalars, then the frame coordinates of the vectors, rounded, and the
    smallest key over the P choices is kept."""
    vecs = rows[..., 1:]
    e1, found = _first_long(vecs)
    e1[~found] = (1.0, 0.0, 0.0)    # all-scalar sets: the identity frame
    e2, found = _first_long(vecs - (vecs @ e1[:, :, None]) * e1[:, None, :])
    axis = np.eye(3)[np.argmin(np.abs(e1), axis=1)]    # collinear sets: a fixed completion
    fill = axis - np.sum(axis * e1, axis=1, keepdims=True) * e1
    e2[~found] = fill[~found] / np.linalg.norm(fill[~found], axis=1, keepdims=True)
    frames = np.stack([e1, e2, np.cross(e1, e2)], axis=1)
    coords = (vecs @ frames.swapaxes(1, 2)).reshape(len(rows), -1)
    keys = np.round(np.concatenate([rows[..., 0], coords], axis=1), _KEY_DECIMALS)
    best = np.lexsort(keys.T[::-1])[0]    # stable: the first of equal keys
    return tuple(keys[best].tolist()), frames[best]


def _canonical_form(mats: np.ndarray, phase_sensitive: bool) -> tuple:
    """Key, frame, and what a certificate must map (the gates ``mats[N, 2, 2]``,
    or their Bloch rotations when phases are ignored)."""
    if mats.shape[1:] != (2, 2):
        raise ValueError("equivalence classification expects qubit gates")
    coef = np.einsum("mij,nji->nm", _TAU, mats) / 2    # mats = coef . (I, X, Y, Z)
    if phase_sensitive:
        return (*_canonical(np.stack([coef.real, coef.imag], axis=1).reshape(1, -1, 4)), mats)
    # U/sqrt(det U) = q0 I - i q.sigma with q0 >= 0; a half turn (q0 = 0) has
    # no such sign, so every sign pattern over the half turns is tried
    coef = coef / np.sqrt(np.linalg.det(mats))[:, None]
    quat = np.concatenate([coef[:, :1].real, -coef[:, 1:].imag], axis=1)
    quat *= np.where(quat[:, :1] < 0, -1.0, 1.0)
    half = np.flatnonzero(np.abs(quat[:, 0]) <= _DEGENERATE)
    signs = np.ones((2 ** len(half), len(quat)))
    signs[:, half] = 1 - 2 * ((np.arange(len(signs))[:, None] >> np.arange(len(half))) & 1)
    return (*_canonical(quat * signs[..., None]), bloch_rotation(mats))


def _su2_lift(o: np.ndarray) -> np.ndarray:
    """A unitary V whose Bloch rotation is the proper rotation o: with
    V sigma_k V^dag = sum_j o[j, k] sigma_j, each
    T(E) = sum_mu (V tau_mu V^dag) E tau_mu equals 2 tr(V^dag E) V."""
    images = np.einsum("jk,jab->kab", o, _PAULI_VEC)
    t = _TAU + np.einsum("kab,ebc,kcd->ead", images, _TAU, _PAULI_VEC)
    best = t[np.argmax(np.linalg.norm(t, axis=(1, 2)))]
    return best / np.sqrt(np.linalg.det(best))


def _conjugation_error(c: np.ndarray, rep: np.ndarray, member: np.ndarray) -> float:
    return float(np.max(np.abs(c @ rep @ c.conj().T - member)))


def _certificate(rep_form: tuple, member_form: tuple, phase_sensitive: bool,
                 tol: float) -> np.ndarray | None:
    """The conjugator that carries the representative's frame onto the
    member's, if it maps the one set onto the other within tol."""
    _, rep_frame, rep = rep_form
    _, member_frame, member = member_form
    c = member_frame.T @ rep_frame
    if phase_sensitive:
        c = _su2_lift(c)
    return c if _conjugation_error(c, rep, member) <= tol else None


def _pair_certificate(a: OracleSet, b: OracleSet, phase_sensitive: bool,
                      tol: float) -> np.ndarray | None:
    if a.N != b.N or a.dim != b.dim:
        raise ValueError("oracle sets must have matching shape")
    return _certificate(_canonical_form(a.matrices(), phase_sensitive),
                        _canonical_form(b.matrices(), phase_sensitive), phase_sensitive, tol)


def find_conjugator(a: OracleSet, b: OracleSet, tol: float = CONJUGATOR_TOL) -> np.ndarray | None:
    """Unitary V with V U_i V^dag = U'_i exactly (phases included), or None."""
    return _pair_certificate(a, b, True, tol)


def find_rotation_conjugator(a: OracleSet, b: OracleSet,
                             tol: float = CONJUGATOR_TOL) -> np.ndarray | None:
    """Rotation R with R R(U_i) R^T = R(U'_i) for all i: conjugation
    equivalence up to arbitrary per-gate phases.  Returns a proper rotation
    (real orthogonal 3x3 with determinant +1) or None."""
    return _pair_certificate(a, b, False, tol)


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


def equivalence_classes(sets, phase_sensitive: bool = True,
                        tol: float = CONJUGATOR_TOL) -> EquivalenceClassification:
    """Group oracle sets that a single change of basis maps onto each other.

    phase_sensitive=True demands exact equality including global phases;
    phase_sensitive=False quotients out per-gate phases by comparing the
    induced Bloch rotations instead.  Each set joins the first class with
    its canonical key whose representative the frame-built conjugator maps
    onto it within tol.
    """
    forms = [_canonical_form(s.matrices(), phase_sensitive) for s in sets]
    by_key: dict[tuple, list[int]] = {}   # canonical key -> indices into classes
    classes: list[list[int]] = []
    conjugators: dict[int, np.ndarray] = {}
    for i, form in enumerate(forms):
        for k in by_key.get(form[0], ()):
            c = _certificate(forms[classes[k][0]], form, phase_sensitive, tol)
            if c is not None:
                classes[k].append(i)
                conjugators[i] = c
                break
        else:
            by_key.setdefault(form[0], []).append(len(classes))
            classes.append([i])
    return EquivalenceClassification(tuple(map(tuple, classes)), phase_sensitive, conjugators)


def verify_classification(classification: EquivalenceClassification, sets,
                          tol: float = CONJUGATOR_TOL) -> None:
    """Re-verify every recorded merge: its certificate must be unitary (a
    proper rotation when phases are ignored) and must map the class
    representative onto the member.  Raises InvariantViolation on failure."""
    strict = classification.phase_sensitive
    sets = list(sets)
    for cls in classification.classes:
        mats = [sets[i].matrices() for i in cls]
        rep, *members = mats if strict else [bloch_rotation(m) for m in mats]
        for i, member in zip(cls[1:], members):
            c = classification.conjugators[i]
            defect = float(np.max(np.abs(c @ c.conj().T - np.eye(len(c)))))
            if not strict:
                defect = max(defect, abs(np.linalg.det(c) - 1.0))
            err = _conjugation_error(c, rep, member)
            if max(defect, err) > tol:
                raise InvariantViolation(
                    f"merge of set {i} into class of {cls[0]} fails verification "
                    f"(certificate defect {defect:.2e}, conjugation error {err:.2e})")
