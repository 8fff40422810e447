"""Promise verification, exhaustive gate-set enumeration, bundled fixture
tables, and conjugation-equivalence classification.

The promise is exact operator equality including global phase: every
ordering product must equal a +-1 multiple of the reference product, with
the signs forming one column of the sign matrix.  Enumeration iterates all
ordered gate assignments (labels matter) in lexicographic order, vectorized
over fixed-size slices of assignments.

Equivalence of gate sets under a common change of basis is decided
explicitly: the intertwiner space {V : V U_i = U'_i V} is the nullspace of
stacked Sylvester constraints, and the unitary polar factor of any
invertible element is a verified conjugator.  A phase-insensitive variant
classifies the induced Bloch rotations the same way, which is the relation
relevant when the sets only enter through their Choi projectors.
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
        ok = _promise_residuals(_ordering_products(mats[q], perms.sigma), signs) <= tol
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

_PAULI_VEC = [pauli(n).matrix for n in "XYZ"]


def bloch_rotation(u: np.ndarray) -> np.ndarray:
    """Rotation induced on the Pauli basis by conjugation with u (phase-free)."""
    return np.array([
        [np.trace(pa @ u @ pb @ u.conj().T).real / 2.0 for pb in _PAULI_VEC]
        for pa in _PAULI_VEC
    ])


def _nullspace(k: np.ndarray, cols: int) -> np.ndarray:
    _, s, vh = np.linalg.svd(k)
    small = int(np.sum(s < 1e-9 * max(1.0, float(s[0])))) if s.size else 0
    small += max(0, cols - s.size)
    if small == 0:
        return np.empty((0, cols), dtype=vh.dtype)
    return vh.conj()[cols - small:]


def _intertwiner(lhs, rhs, dim, verify, tol, real=False, tries=12, seed=7):
    """Invertible X with X a = b X for all pairs, unitarized by polar
    decomposition and verified; None if the pairs are inequivalent.

    Invertible elements are dense in the solution space whenever one exists,
    so a few random combinations of the nullspace basis suffice; real
    problems need real coefficients so the polar factor stays orthogonal.
    """
    eye = np.eye(dim)
    k = np.vstack([np.kron(eye, a.T) - np.kron(b, eye) for a, b in zip(lhs, rhs)])
    basis = _nullspace(k, dim * dim)
    if real:
        basis = basis.real
    if basis.shape[0] == 0 or np.max(np.abs(basis)) < 1e-12:
        return None
    rng = np.random.default_rng(seed)
    candidates = list(basis)
    for _ in range(tries):
        coeff = rng.normal(size=basis.shape[0])
        if not real:
            coeff = coeff + 1j * rng.normal(size=basis.shape[0])
        candidates.append(coeff @ basis)
    for c in candidates:
        x = c.reshape(dim, dim)
        if abs(np.linalg.det(x)) < 1e-8:
            continue
        u, _, vh = np.linalg.svd(x)
        v = u @ vh
        if verify(v) <= tol:
            return v
    return None


def find_conjugator(a: OracleSet, b: OracleSet, tol: float = 1e-8) -> np.ndarray | None:
    """Unitary V with V U_i V^dag = U'_i exactly (phases included), or None."""
    if a.N != b.N or a.dim != b.dim:
        raise ValueError("oracle sets must have matching shape")
    us, vs = list(a.matrices()), list(b.matrices())

    def verify(v):
        return max(np.max(np.abs(v @ u @ v.conj().T - w)) for u, w in zip(us, vs))

    return _intertwiner(us, vs, a.dim, verify, tol)


def find_rotation_conjugator(a: OracleSet, b: OracleSet, tol: float = 1e-8) -> np.ndarray | None:
    """Rotation R with R R(U_i) R^T = R(U'_i) for all i: conjugation
    equivalence up to arbitrary per-gate phases.  Returns a proper rotation
    (real orthogonal 3x3 with determinant +1) or None."""
    ra = [bloch_rotation(u) for u in a.matrices()]
    rb = [bloch_rotation(u) for u in b.matrices()]

    def verify(o):
        return max(np.max(np.abs(o @ r @ o.T - s)) for r, s in zip(ra, rb))

    o = _intertwiner(ra, rb, 3, verify, tol, real=True)
    # -O conjugates exactly like O and, in three dimensions, flips the sign
    # of the determinant; only a proper rotation is the image of a unitary
    if o is not None and np.linalg.det(o) < 0:
        o = -o
    return o


def _strict_fingerprint(oracle: OracleSet) -> tuple:
    mats = oracle.matrices()
    vals = [np.trace(m) for m in mats]
    vals += [np.trace(mats[i] @ mats[j]) for i in range(len(mats)) for j in range(len(mats))]
    return tuple(np.round(np.asarray(vals), 8).tolist())


def _rotation_fingerprint(oracle: OracleSet) -> tuple:
    rots = [bloch_rotation(m) for m in oracle.matrices()]
    vals = [np.trace(r) for r in rots]
    vals += [np.trace(rots[i] @ rots[j]) for i in range(len(rots)) for j in range(len(rots))]
    return tuple(np.round(np.asarray(vals), 8).tolist())


@dataclass(frozen=True)
class EquivalenceClassification:
    """Partition of the input sets; ``classes`` holds input indices, the
    first index of each class is its representative.  For method='explicit'
    every non-representative member carries a verified conjugator onto its
    representative in ``conjugators``."""

    classes: tuple[tuple[int, ...], ...]
    method: str
    phase_sensitive: bool
    conjugators: dict[int, np.ndarray] = field(repr=False, default_factory=dict)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def equivalence_classes(sets, phase_sensitive: bool = True,
                        method: str = "explicit", tol: float = 1e-8) -> EquivalenceClassification:
    """Group oracle sets that a single change of basis maps onto each other.

    phase_sensitive=True demands exact equality including global phases
    (conjugating unitary constructed and verified per merge);
    phase_sensitive=False quotients out per-gate phases by classifying the
    induced Bloch rotations instead.  method='fingerprint' groups by cheap
    trace invariants only (no verification) and is mainly a cross-check.
    """
    sets = list(sets)
    for s in sets:
        if s.dim != 2:
            raise ValueError("equivalence classification expects qubit gates")
    fingerprint = _strict_fingerprint if phase_sensitive else _rotation_fingerprint
    fps = [fingerprint(s) for s in sets]

    if method == "fingerprint":
        groups: dict[tuple, list[int]] = {}
        for i, fp in enumerate(fps):
            groups.setdefault(fp, []).append(i)
        classes = tuple(tuple(v) for v in groups.values())
        return EquivalenceClassification(classes, "fingerprint", phase_sensitive)
    if method != "explicit":
        raise ValueError(f"unknown method {method!r}")

    find = find_conjugator if phase_sensitive else find_rotation_conjugator
    by_fp: dict[tuple, list[int]] = {}   # fingerprint -> class representative indices
    classes: list[list[int]] = []
    rep_class: dict[int, int] = {}
    conjugators: dict[int, np.ndarray] = {}
    for i, s in enumerate(sets):
        placed = False
        for rep in by_fp.get(fps[i], ()):
            v = find(sets[rep], s, tol)
            if v is not None:
                classes[rep_class[rep]].append(i)
                conjugators[i] = v
                placed = True
                break
        if not placed:
            rep_class[i] = len(classes)
            classes.append([i])
            by_fp.setdefault(fps[i], []).append(i)
    return EquivalenceClassification(tuple(tuple(c) for c in classes), "explicit",
                                     phase_sensitive, conjugators)


def verify_classification(classification: EquivalenceClassification, sets,
                          tol: float = 1e-8) -> None:
    """Re-verify every recorded merge; raises InvariantViolation on failure."""
    if classification.method != "explicit":
        raise ValueError("only explicit classifications carry certificates")
    sets = list(sets)
    for cls in classification.classes:
        rep = sets[cls[0]].matrices()
        for i in cls[1:]:
            v = classification.conjugators[i]
            member = sets[i].matrices()
            if classification.phase_sensitive:
                err = max(np.max(np.abs(v @ u @ v.conj().T - w))
                          for u, w in zip(rep, member))
            else:
                ra = [bloch_rotation(u) for u in rep]
                rb = [bloch_rotation(u) for u in member]
                err = max(np.max(np.abs(v @ r @ v.T - s)) for r, s in zip(ra, rb))
            if err > tol:
                raise InvariantViolation(
                    f"merge of set {i} into class of {cls[0]} fails verification ({err:.2e})"
                )
