"""Process-matrix view of the controlled-ordering experiment.

A process matrix is a positive operator over the input/output spaces of the
four gate slots (plus control registers) that encodes how the slots are
wired.  This module builds the ideal controlled-ordering wiring, the
effective process left after fixing the control preparation/readout and the
target input, witness operators whose expectation is the algorithm's success
probability, the per-outcome superinstrument reduction, and the verifier for
decompositions certifying classically controlled gate orders.

Every process built here is a pure wiring ket with the final target ``t_f``
traced out, so it has rank <= 2.  :class:`ProcessMatrix` therefore stores a
factor A with W = A A^dagger: positivity holds by construction, and witness
values and superinstrument blocks are computed from the rows of A.  The
dense W is built only on request.  The decomposition verifier takes dense
parts (they may come from anywhere) and checks positivity on each part's
support only.

Frozen conventions (asserted by tests):

* party spaces are ordered (A_I, A_O, B_I, B_O, C_I, C_O, D_I, D_O), each of
  dimension 2, with the readout space ``c`` last;
* wiring links are unnormalized maximally-entangled pairs |00> + |11> with
  squared norm 2;
* the transpose in witness operators is taken entrywise in the computational
  product basis.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gates import SignMatrix
from .linalg import (LabeledSpace, as_state, basis_state, choi_vector,
                     kron_all, partial_trace, reorder_matrix, reorder_vector,
                     space_dims, space_index)
from .switch import OracleSet, PermutationSet, SIGMA_STAR

PARTY_NAMES = "ABCD"
PARTY_LABELS = tuple(f"{p}_{io}" for p in PARTY_NAMES for io in ("I", "O"))

_LINK = np.array([1, 0, 0, 1], dtype=complex)  # |00> + |11>, squared norm 2


def _psd_violation(mat: np.ndarray, tol: float) -> float:
    """0.0 when the Hermitian part is PSD within tol (cheap Cholesky
    certificate of the shifted matrix), else the eigenvalue defect."""
    h = (mat + mat.conj().T) / 2
    try:
        np.linalg.cholesky(h + tol * np.eye(h.shape[0]))
        return 0.0
    except np.linalg.LinAlgError:
        return max(0.0, -float(np.linalg.eigvalsh(h).min()))


def party_spaces() -> list[LabeledSpace]:
    return [LabeledSpace(lab, 2) for lab in PARTY_LABELS]


def effective_spaces(p: int = 4) -> list[LabeledSpace]:
    return party_spaces() + [LabeledSpace("c", p)]


def switch_process_spaces(p: int = 4) -> list[LabeledSpace]:
    return ([LabeledSpace("c_p", p), LabeledSpace("t_p", 2)] + party_spaces()
            + [LabeledSpace("t_f", 2), LabeledSpace("c_f", p)])


@dataclass(frozen=True, eq=False)
class ProcessMatrix:
    """Labeled positive-semidefinite operator W = A A^dagger over an ordered
    space list, stored as its factor A of shape (d, r)."""

    spaces: tuple[LabeledSpace, ...]
    factor: np.ndarray = field(repr=False)

    def __init__(self, spaces, factor):
        spaces = tuple(spaces)
        factor = np.array(factor, dtype=complex)
        d = int(np.prod(space_dims(spaces)))
        if factor.ndim != 2 or factor.shape[0] != d:
            raise ValueError(f"factor shape {factor.shape} does not match spaces (dim {d})")
        if not np.all(np.isfinite(factor)):
            raise ValueError("process factor has non-finite entries")
        factor.flags.writeable = False
        object.__setattr__(self, "spaces", spaces)
        object.__setattr__(self, "factor", factor)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense W, built on first use; read-only."""
        mat = self.factor @ self.factor.conj().T
        mat.flags.writeable = False
        return mat

    @property
    def trace(self) -> float:
        return float(np.vdot(self.factor, self.factor).real)

    def labels(self) -> list[str]:
        return [s.label for s in self.spaces]


def _chain_ket(order, head, tail, spaces) -> np.ndarray:
    """Ket over ``spaces`` for the slots wired in ``order``: the ``head``
    factors, identity links from each slot's output to the next slot's input
    and from the last output to t_f, then the ``tail`` factors.  ``head`` and
    ``tail`` are lists of (vector, labels) pairs; the head must end on the
    first slot's input."""
    slots = [PARTY_NAMES[j] for j in order]
    ends = [f"{b}_I" for b in slots[1:]] + ["t_f"]
    links = [(_LINK, [f"{a}_O", b]) for a, b in zip(slots, ends)]
    parts = list(head) + links + list(tail)
    labels = [lab for _, labs in parts for lab in labs]
    dims = {sp.label: sp.dim for sp in spaces}
    vec = kron_all([v for v, _ in parts])
    return reorder_vector(vec, [dims[lab] for lab in labels],
                          [labels.index(sp.label) for sp in spaces])


def build_switch_process_ket(perms: PermutationSet = SIGMA_STAR) -> np.ndarray:
    """Ideal wiring ket over (c_p, t_p, parties, t_f, c_f).

    Branch x carries |x> on both control registers and a chain of identity
    links routing t_p through the gate slots in ordering x and out to t_f.
    Squared norm is P * 2**(N+1) (orthogonal branches, N+1 links each).
    """
    p = perms.P
    spaces = switch_process_spaces(p)
    total = np.zeros(int(np.prod(space_dims(spaces))), dtype=complex)
    for x, sig in enumerate(perms.sigma):
        basis_x = np.zeros(p, dtype=complex)
        basis_x[x] = 1.0
        head = [(basis_x, ["c_p"]), (_LINK, ["t_p", f"{PARTY_NAMES[sig[0]]}_I"])]
        total += _chain_ket(sig, head, [(basis_x, ["c_f"])], spaces)
    return total


def build_effective_ket(target_in: np.ndarray, m: SignMatrix,
                        perms: PermutationSet = SIGMA_STAR) -> np.ndarray:
    """Wiring ket after fixing the algorithm's preparations and readout.

    The uniform control preparation weights every branch by 1/sqrt(P), the
    target state enters the first gate slot of each branch, and the inverse
    control gate acts before the readout register ``c``.  Lives on
    (parties, t_f, c); squared norm 2**N for a normalized qubit target (the
    P branches each carry 2**N / P and are orthogonal on ``c``).
    """
    target = as_state(target_in)
    p = perms.P
    if m.P != p:
        raise ValueError("sign-matrix order does not match the permutation set")
    h = m.as_gate()
    hinv = m.as_gate_inverse()
    spaces = party_spaces() + [LabeledSpace("t_f", 2), LabeledSpace("c", p)]
    total = np.zeros(int(np.prod(space_dims(spaces))), dtype=complex)
    for x, sig in enumerate(perms.sigma):
        head = [(target, [f"{PARTY_NAMES[sig[0]]}_I"])]
        total += h[x, 0] * _chain_ket(sig, head, [(hinv[:, x], ["c"])], spaces)
    return total


def build_effective_process(target_in: np.ndarray, m: SignMatrix,
                            perms: PermutationSet = SIGMA_STAR) -> ProcessMatrix:
    """Effective process over (parties, c): the pure wiring ket with the
    final target register traced out.  Trace 2**N; rank <= 2, with one
    factor column per value of t_f."""
    ket = build_effective_ket(target_in, m, perms).reshape(-1, 2, m.P)
    factor = ket.transpose(0, 2, 1).reshape(-1, 2)
    return ProcessMatrix(effective_spaces(m.P), factor)


def definite_order_process(order: str, target_in: np.ndarray, answer_y: int,
                           p: int = 4) -> ProcessMatrix:
    """Comb that wires the slots in one fixed order and always reports
    ``answer_y``: the baseline every witness is scored against."""
    target = as_state(target_in)
    seq = [PARTY_NAMES.index(ch) for ch in order.upper()]
    if sorted(seq) != list(range(len(PARTY_NAMES))):
        raise ValueError(f"{order!r} is not an ordering of {PARTY_NAMES}")
    spaces = party_spaces() + [LabeledSpace("t_f", 2)]
    chain = _chain_ket(seq, [(target, [f"{PARTY_NAMES[seq[0]]}_I"])], [], spaces)
    readout = basis_state(p, answer_y).reshape(p, 1)
    return ProcessMatrix(effective_spaces(p), np.kron(chain.reshape(-1, 2), readout))


# ---------------------------------------------------------------------------
# Witness operators
# ---------------------------------------------------------------------------

def oracle_choi_ket(oracle: OracleSet) -> np.ndarray:
    """Product of the gate Choi vectors over (A_I, A_O, ..., D_O)."""
    return kron_all([choi_vector(g.matrix) for g in oracle.gates])


@dataclass(frozen=True, eq=False)
class WitnessOperator:
    """Convex combination of transposed oracle Choi projectors tagged with
    their promised readout outcome; expectation against an effective process
    is the algorithm's success probability."""

    spaces: tuple[LabeledSpace, ...]
    components: tuple[tuple[OracleSet, int, float], ...]

    def __init__(self, spaces, components):
        components = tuple((o, int(y), float(q)) for o, y, q in components)
        if not components:
            raise ValueError("witness needs at least one component")
        weights = np.array([q for _, _, q in components])
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to 1")
        p = spaces[-1].dim
        for o, y, _ in components:
            if o.N != 4 or o.dim != 2:
                raise ValueError("witness components need four qubit gates")
            if not 0 <= y < p:
                raise ValueError(f"outcome {y} out of range for readout dim {p}")
        object.__setattr__(self, "spaces", tuple(spaces))
        object.__setattr__(self, "components", components)

    def matrix(self) -> np.ndarray:
        """Dense form: sum_k q_k (|U_k>><<U_k|)^T (x) |y_k><y_k|."""
        p = self.spaces[-1].dim
        d = int(np.prod(space_dims(self.spaces))) // p
        out = np.zeros((d, p, d, p), dtype=complex)
        for y in range(p):
            comps = [(o, q) for o, yk, q in self.components if yk == y]
            if comps:
                # columns are the transposed projectors' kets
                b = np.array([oracle_choi_ket(o) for o, _ in comps]).conj().T
                q = np.array([q for _, q in comps])
                out[:, y, :, y] = (b * q) @ b.conj().T
        return out.reshape(d * p, d * p)


def witness_operator(components) -> WitnessOperator:
    """Build a witness on the standard (parties, c) spaces."""
    return WitnessOperator(effective_spaces(4), components)


def uniform_witness(oracles) -> WitnessOperator:
    """Equal weights over oracle sets that carry their verified column."""
    oracles = list(oracles)
    q = 1.0 / len(oracles)
    return witness_operator([(o, o.claimed_y, q) for o in oracles])


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Superinstrument:
    """Per-outcome blocks W[y] = Tr_c[(1 (x) |y><y|) W] over the party spaces."""

    parts: tuple[np.ndarray, ...]
    spaces: tuple[LabeledSpace, ...]

    @property
    def total_trace(self) -> float:
        return float(sum(np.trace(w).real for w in self.parts))


def _readout_blocks(w: ProcessMatrix):
    """Rows of the factor grouped by readout outcome, shape (p, d/p, r) with
    block y over the party spaces in order, plus those spaces."""
    if "c" not in w.labels():
        raise ValueError("process has no readout space 'c'")
    c = space_index(w.spaces, "c")
    dims = space_dims(w.spaces)
    r = w.factor.shape[1]
    blocks = np.moveaxis(w.factor.reshape(dims + [r]), c, 0).reshape(dims[c], -1, r)
    return blocks, w.spaces[:c] + w.spaces[c + 1:]


def superinstrument(w: ProcessMatrix) -> Superinstrument:
    blocks, kept = _readout_blocks(w)
    return Superinstrument(tuple(b @ b.conj().T for b in blocks), kept)


def success_probability(w: ProcessMatrix, g: WitnessOperator) -> float:
    """Tr[G W] = sum_k q_k ||U_k>>^T A_{y_k}|^2, where A_y holds the factor
    rows at readout outcome y and |U_k>> is the oracle's Choi ket."""
    if w.labels() != [s.label for s in g.spaces] or space_dims(w.spaces) != space_dims(g.spaces):
        raise ValueError("witness and process spaces do not match")
    blocks, _ = _readout_blocks(w)
    val = 0.0
    for oracle, y, q in g.components:
        amp = oracle_choi_ket(oracle) @ blocks[y]
        val += q * float(np.vdot(amp, amp).real)
    if not -1e-8 <= val <= 1.0 + 1e-8:
        raise ValueError(f"success probability {val} outside [0, 1]")
    return val


# ---------------------------------------------------------------------------
# Decomposition constraints for classically controlled gate orders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    passed: bool
    residual: float


@dataclass(frozen=True)
class CcgoReport:
    """Outcome of checking a 24-part decomposition against the reduced
    identity-on-output constraints.  ``normalized`` records whether the parts
    sum to the canonical trace 2**N (vacuous passes are possible otherwise)."""

    checks: tuple[ConstraintCheck, ...]
    trace: float
    normalized: bool

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[ConstraintCheck]:
        return [c for c in self.checks if not c.passed]


def _identity_residual(mat: np.ndarray, spaces, out_label: str) -> float:
    """Max-norm distance of ``mat`` from (Tr_out mat)/2 (x) 1 on out_label."""
    dims = space_dims(spaces)
    k = len(dims)
    i = space_index(spaces, out_label)
    reduced = partial_trace(mat, spaces, {out_label}) / spaces[i].dim
    # re-insert the identity factor at position i
    rest = [j for j in range(k) if j != i]
    expanded = np.kron(reduced, np.eye(spaces[i].dim))
    order = rest + [i]
    inverse = [order.index(j) for j in range(k)]
    expanded = reorder_matrix(expanded, [dims[j] for j in order], inverse)
    return float(np.max(np.abs(mat - expanded)))


def verify_ccgo_decomposition(parts, tolerance: float = 1e-9) -> CcgoReport:
    """Check a candidate decomposition {ordering -> matrix over (parties, c)}.

    Requirements checked, one named entry each: every part positive
    semidefinite; for each ordering (i,j,k,l) the readout-traced part is
    identity on l_O; tracing slot l leaves identity on k_O; summing over k
    and tracing leaves identity on j_O; summing over j likewise on i_O.
    """
    orderings = list(itertools.permutations(PARTY_NAMES))
    keys = {tuple(k) for k in parts.keys()}
    if keys != set(orderings):
        raise ValueError("need exactly the 24 orderings of A, B, C, D as keys")
    spaces_c = effective_spaces(4)
    d = int(np.prod(space_dims(spaces_c)))
    checks: list[ConstraintCheck] = []
    total_trace = 0.0

    def spaces_for(slots):
        return [s for s in party_spaces() if s.label.split("_")[0] in slots]

    reduced: dict[tuple, np.ndarray] = {}
    for key in orderings:
        mat = np.asarray(parts[key], dtype=complex)
        if mat.shape != (d, d):
            raise ValueError(f"part {key} has shape {mat.shape}, expected {(d, d)}")
        total_trace += float(np.trace(mat).real)
        # Outside the support (indices whose row or column holds a nonzero)
        # both mat and mat^dagger vanish, so the Hermitian residual and the
        # PSD defect of the support block are those of the whole part.
        nonzero = mat != 0
        support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
        if support.size == 0:
            herm_res, eig_defect = 0.0, 0.0
        else:
            sub = mat if support.size == d else mat[np.ix_(support, support)]
            herm_res = float(np.max(np.abs(sub - sub.conj().T)))
            eig_defect = _psd_violation(sub, tolerance)
        psd_ok = herm_res <= tolerance and eig_defect <= tolerance
        checks.append(ConstraintCheck(f"psd[{''.join(key)}]", psd_ok,
                                      max(herm_res, eig_defect)))
        reduced[key] = partial_trace(mat, spaces_c, {"c"})

    # prefix lengths 4 -> 1: each reduced part must be identity on the output
    # of its prefix's last slot; tracing that slot out and summing over the
    # completions of each shorter prefix gives the next level's parts
    for _ in range(len(PARTY_NAMES)):
        shorter: dict[tuple, np.ndarray] = {}
        for prefix in sorted(reduced):
            last = prefix[-1]
            spaces = spaces_for(prefix)
            res = _identity_residual(reduced[prefix], spaces, f"{last}_O")
            checks.append(ConstraintCheck(f"reduced[{''.join(prefix)}] = ~W (x) 1[{last}_O]",
                                          res <= tolerance, res))
            tr = partial_trace(reduced[prefix], spaces, {f"{last}_I", f"{last}_O"})
            head = prefix[:-1]
            shorter[head] = shorter[head] + tr if head in shorter else tr
        reduced = shorter

    normalized = abs(total_trace - 2 ** 4) <= 1e-8 * 2 ** 4
    return CcgoReport(tuple(checks), total_trace, normalized)
