"""Process-matrix view of the controlled-ordering experiment.

A process matrix is a positive operator over the input/output spaces of the
N gate slots (plus control registers) that encodes how the slots are
wired.  This module builds the ideal controlled-ordering wiring, the
effective process left after fixing the control preparation/readout and the
target input, witness operators whose expectation is the algorithm's success
probability, the per-outcome superinstrument reduction, and the verifier for
decompositions certifying classically controlled gate orders.

Every process built here is a pure wiring ket with the final target ``t_f``
traced out, so it has rank <= 2.  :class:`ProcessMatrix` therefore stores a
factor A with W = A A^dagger: positivity holds by construction, and witness
values and superinstrument blocks are computed from the rows of A.  The
dense W is built only on request, on the rows where A holds a nonzero and
without BLAS: a rank <= 2 product gains nothing from BLAS threads, which
would then spin idle.  The decomposition verifier runs on factor pairs, so
it never makes a ProcessMatrix part dense and runs at any N; a dense part
(it may come from anywhere) is read once, for its support.

N is read from the inputs.  One layout (asserted by tests), slowest first:

* the 2N party qubits (A_I, A_O, B_I, B_O, ...), then the readout ``c`` of
  dimension P: processes and witnesses live on 4**N * P rows, and a factor
  has shape (4**N, P, r), so its shape gives both N and P;
* wiring chains run over (parties, t_f), and the ideal switch ket over
  (c_p, t_p, parties, t_f, c_f);
* wiring links are identities, i.e. unnormalized maximally-entangled pairs
  |00> + |11> with squared norm 2;
* the transpose in witness operators is taken entrywise in the computational
  product basis.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gates import SignMatrix
from .linalg import (CCGO_TOL, CCGO_TRACE_RTOL, PROBABILITY_TOL, WITNESS_RANGE_TOL, _as_index,
                     as_state, basis_state, choi_vector, kron_all)
from .switch import _LABELS, OracleSet, PermutationSet, SIGMA_STAR

_EYE = np.eye(2, dtype=complex)
_DENSE_ROWS = 2048   # the largest dense operator: N = 4 slots with P <= 8 outcomes


def _dense_zeros(n: int) -> np.ndarray:
    """An n x n complex zero matrix, refused before allocating when n > _DENSE_ROWS."""
    if n > _DENSE_ROWS:
        raise ValueError(f"a dense {(n, n)} operator exceeds {_DENSE_ROWS} rows; use the factors")
    return np.zeros((n, n), dtype=complex)


def _gram(f: np.ndarray) -> np.ndarray:
    """Read-only f f^dagger, formed by einsum (no BLAS call) on the rows of f
    that hold a nonzero and scattered into a zero matrix."""
    rows = np.flatnonzero(f.any(axis=1))
    sub = f[rows]
    out = _dense_zeros(len(f))
    out[np.ix_(rows, rows)] = np.einsum("ik,jk->ij", sub, sub.conj())
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ProcessMatrix:
    """Positive-semidefinite operator W = A A^dagger over (parties, c),
    stored as its factor A of shape (4**N, P, r)."""

    factor: np.ndarray = field(repr=False)

    def __init__(self, factor):
        factor = np.array(factor, dtype=complex)
        if factor.ndim != 3 or 0 in factor.shape or factor.shape[0] not in 4 ** np.arange(1, 9):
            raise ValueError(f"factor shape {factor.shape} is not (4**N, P, r) with 1 <= N <= 8")
        if not np.all(np.isfinite(factor)):
            raise ValueError("process factor has non-finite entries")
        factor.flags.writeable = False
        object.__setattr__(self, "factor", factor)

    @property
    def N(self) -> int:
        """Number of gate slots."""
        return self.factor.shape[0].bit_length() // 2

    @property
    def P(self) -> int:
        """Dimension of the readout ``c``."""
        return self.factor.shape[1]

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense W over 4**N * P <= 2048 rows, built on first use; read-only."""
        return _gram(self.factor.reshape(-1, self.factor.shape[2]))

    @property
    def trace(self) -> float:
        return float(np.vdot(self.factor, self.factor).real)


def _chain(order, head) -> np.ndarray:
    """Identity links through the slots in ``order`` over (parties, t_f):
    ``head`` [..., 2] feeds the first slot's input, each slot's output the
    next slot's input, and the last output t_f.  Shape [..., 2 x (2N+1)]."""
    # axis letters: the party qubits (A_I, A_O, B_I, ...), then t_f
    axes = "".join(chr(ord("a") + k) for k in range(2 * len(order) + 1))
    ins = [axes[2 * j] for j in order] + [axes[-1]]
    links = ",".join(axes[2 * j + 1] + i for j, i in zip(order, ins[1:]))
    return np.einsum(f"...{ins[0]},{links}->...{axes}", head, *[_EYE] * len(order))


def build_switch_process_ket(perms: PermutationSet = SIGMA_STAR) -> np.ndarray:
    """Ideal wiring ket over (c_p, t_p, parties, t_f, c_f).

    Branch x carries |x> on both control registers and a chain of identity
    links routing t_p through the gate slots in ordering x and out to t_f.
    Squared norm is P * 2**(N+1) (orthogonal branches, N+1 links each).
    """
    ket = np.zeros((perms.P, 2) + (2,) * (2 * perms.N + 1) + (perms.P,), dtype=complex)
    for x, sig in enumerate(perms.sigma):
        ket[x, ..., x] = _chain(sig, _EYE)
    return ket.reshape(-1)


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
    if m.P != perms.P:
        raise ValueError("sign-matrix order does not match the permutation set")
    chains = np.array([_chain(sig, target) for sig in perms.sigma])
    return np.einsum("cx,x...->...c", m.as_gate_inverse() * m.as_gate()[:, 0], chains).reshape(-1)


def build_effective_process(target_in: np.ndarray, m: SignMatrix,
                            perms: PermutationSet = SIGMA_STAR) -> ProcessMatrix:
    """Effective process over (parties, c): the pure wiring ket with the
    final target register traced out.  Trace 2**N; rank <= 2, with one
    factor column per value of t_f."""
    return ProcessMatrix(build_effective_ket(target_in, m, perms).reshape(-1, 2, m.P).transpose(0, 2, 1))


def definite_order_process(order: str, target_in: np.ndarray,
                           answer_y: int) -> ProcessMatrix:
    """Comb that wires the slots in one fixed order and always reports
    ``answer_y`` on a four-outcome readout: the baseline every witness is
    scored against."""
    target = as_state(target_in)
    labels = _LABELS[:len(order)]
    if not order or sorted(order.upper()) != list(labels):
        raise ValueError(f"{order!r} is not an ordering of {labels}")
    chain = _chain([labels.index(ch) for ch in order.upper()], target)
    return ProcessMatrix(basis_state(4, answer_y)[:, None] * chain.reshape(-1, 1, 2))


# ---------------------------------------------------------------------------
# Witness operators
# ---------------------------------------------------------------------------

def oracle_choi_ket(oracle: OracleSet) -> np.ndarray:
    """Product of the gate Choi vectors over the party qubits (A_I, A_O, B_I, ...)."""
    return kron_all([choi_vector(g.matrix) for g in oracle.gates])


@dataclass(frozen=True, eq=False)
class WitnessOperator:
    """Convex combination of transposed oracle Choi projectors tagged with
    their promised outcome on a four-outcome readout; expectation against an
    effective process is the algorithm's success probability."""

    P = 4  # readout dimension
    components: tuple[tuple[OracleSet, int, float], ...]

    def __init__(self, components):
        components = tuple((o, _as_index(y, "component outcome"), float(q))
                           for o, y, q in components)
        if not components:
            raise ValueError("witness needs at least one component")
        weights = np.array([q for _, _, q in components])
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > PROBABILITY_TOL:
            raise ValueError("weights must be nonnegative and sum to 1")
        for o, y, _ in components:
            if o.N != components[0][0].N or o.dim != 2:
                raise ValueError("witness components need qubit gates, as many in each")
            if not 0 <= y < self.P:
                raise ValueError(f"outcome {y} out of range for readout dim {self.P}")
        object.__setattr__(self, "components", components)

    @property
    def N(self) -> int:
        return self.components[0][0].N

    def matrix(self) -> np.ndarray:
        """Dense form over 4**N * P <= 2048 rows: sum_k q_k (|U_k>><<U_k|)^T (x) |y_k><y_k|."""
        d, p = 4 ** self.N, self.P
        out = _dense_zeros(d * p).reshape(d, p, d, p)
        for y in range(p):
            comps = [(o, q) for o, yk, q in self.components if yk == y]
            if comps:
                # columns are the transposed projectors' kets, on their support rows
                b = np.array([oracle_choi_ket(o) for o, _ in comps]).conj().T
                rows = np.flatnonzero(b.any(axis=1))
                b, q = b[rows], np.array([q for _, q in comps])
                out[rows[:, None], y, rows, y] = (b * q) @ b.conj().T
        return out.reshape(d * p, d * p)


def witness_operator(components) -> WitnessOperator:
    """Build a witness from (oracle, outcome, weight) triples."""
    return WitnessOperator(components)


def uniform_witness(oracles) -> WitnessOperator:
    """Equal weights over oracle sets that carry their verified column."""
    oracles = list(oracles)
    return witness_operator([(o, o.claimed_y, 1.0 / len(oracles)) for o in oracles])


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def superinstrument(w: ProcessMatrix) -> np.ndarray:
    """Per-outcome blocks W[y] = Tr_c[(1 (x) |y><y|) W] over the party spaces,
    as one read-only stack of shape (P, 4**N, 4**N)."""
    parts = np.stack([_gram(b) for b in w.factor.swapaxes(0, 1)])
    parts.flags.writeable = False
    return parts


def success_probability(w: ProcessMatrix, g: WitnessOperator) -> float:
    """Tr[G W] = sum_k q_k ||U_k>>^T A_{y_k}|^2, where A_y = factor[:, y] holds
    the factor rows at readout outcome y and |U_k>> is the oracle's Choi ket."""
    if w.P != g.P:
        raise ValueError(f"witness readout dim {g.P} does not match process readout dim {w.P}")
    if w.N != g.N:
        raise ValueError(f"witness gate count {g.N} does not match process slot count {w.N}")
    val = 0.0
    for oracle, y, q in g.components:
        amp = oracle_choi_ket(oracle) @ w.factor[:, y]
        val += q * float(np.vdot(amp, amp).real)
    if not -WITNESS_RANGE_TOL <= val <= 1.0 + WITNESS_RANGE_TOL:
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
    """Outcome of checking an N!-part decomposition against the reduced
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


def _support(mat: np.ndarray) -> np.ndarray:
    """Indices whose row or column of ``mat`` holds a nonzero, read in blocks of 64 rows."""
    flat = np.ascontiguousarray(mat).view(np.float64)  # real and imaginary parts side by side
    rows, cols = [], np.zeros(flat.shape[1], dtype=bool)
    for r in range(0, len(flat), 64):
        nonzero = flat[r:r + 64] != 0
        rows.append(nonzero.any(axis=1))
        cols |= nonzero.any(axis=0)
    return np.flatnonzero(np.concatenate(rows) | cols.reshape(-1, 2).any(axis=1))


# The verifier runs on pairs (rows, ab) standing for a b^dagger, where (a, b) = ab
# has shape (2, len(rows), k) and ``rows`` sorts the only rows where a or b is
# nonzero: (A, A) for a ProcessMatrix of factor A, and for a dense part its
# support columns and a selector of its support rows.

def _slot_step(pairs, below: int):
    """For t the sum of the operators of ``pairs`` (their columns side by side
    in a and b) and the qubit O of place value ``below``: max|t - (Tr_O t)/2
    (x) 1_O| = max(|a0 b0^dagger - a1 b1^dagger|/2, |a0 b1^dagger|, |a1 b0^dagger|)
    with a_x the rows of a at O = x, and t's pair with O and the next slower
    qubit I traced: row (high, I, O, low) becomes row (high, low)."""
    rows = np.concatenate([r for r, _ in pairs])
    digit = rows // below % 4
    kept, at = np.unique(rows // (4 * below) * below + rows % below, return_inverse=True)
    ends = np.cumsum([(len(r), ab.shape[2]) for r, ab in pairs], axis=0)
    wide = np.zeros((2, len(kept), 2, 2, ends[-1, 1]), dtype=complex)
    for (r, ab), (r1, c1) in zip(pairs, ends):
        i = slice(r1 - len(r), r1)
        wide[:, at[i], digit[i] % 2, digit[i] // 2, c1 - ab.shape[2]:c1] = ab
    # four products, not one of twice the rows: on four-slot combs each stays
    # below OpenBLAS's threading size, so no worker wakes to spin after it
    (a0, a1), (b0, b1) = (w.swapaxes(0, 1).reshape(2, 2 * len(kept), ends[-1, 1]) for w in wide)
    b0, b1 = b0.conj().T, b1.conj().T
    res = max(np.abs(a0 @ b0 - a1 @ b1).max(initial=0.0) / 2,
              np.abs(a0 @ b1).max(initial=0.0), np.abs(a1 @ b0).max(initial=0.0))
    ab = wide.reshape(2, len(kept), 4 * ends[-1, 1])
    if ab.shape[2] > len(kept):   # thinned to (a b^dagger, 1)
        ab = np.array([ab[0] @ ab[1].conj().T, np.eye(len(kept))])
    return float(res), (kept, ab)


def verify_ccgo_decomposition(parts) -> CcgoReport:
    """Check a candidate decomposition {ordering -> part over (parties, c)}
    whose keys are the N! orderings of the first N labels; a part is a
    :class:`ProcessMatrix` (PSD by construction) or a dense matrix, read once
    for its support (indices whose row or column holds a nonzero).

    Requirements checked, one named entry each: every part positive
    semidefinite; each readout-traced part is identity on its last slot's
    output; tracing that slot and summing over it leaves identity on the
    previous slot's output, down to the first slot.  Non-finite parts raise.
    """
    keys = {tuple(k) for k in parts.keys()}
    n = max(map(len, keys), default=1)
    orderings = list(itertools.permutations(_LABELS[:n]))
    if keys != set(orderings):
        raise ValueError(f"need exactly the {len(orderings)} orderings of {_LABELS[:n]} as keys")
    shapes = {key: (len(w.factor) * w.P,) * 2 if isinstance(w, ProcessMatrix) else np.shape(w)
              for key, w in parts.items()}
    d = (shapes[orderings[0]] or (0,))[0]
    p = d // 4 ** n
    if p == 0 or d % 4 ** n:
        raise ValueError(f"part dimension {d} is not 4**{n} party rows times a readout")
    checks, level, total_trace = [], [], 0.0
    for key in orderings:   # each part to its PSD check and its readout-traced pair
        part, name, res = parts[key], "".join(key), 0.0
        if shapes[key] != (d, d):
            raise ValueError(f"part {key} has shape {shapes[key]}, expected {(d, d)}")
        if isinstance(part, ProcessMatrix):
            f = part.factor.reshape(4 ** n, -1)   # the readout moved into the columns
            rows = np.flatnonzero(f.any(axis=1))
            total_trace += part.trace
            ab = np.array([f[rows]] * 2)
        else:
            mat = np.asarray(part, dtype=complex)
            total_trace += float(np.trace(mat).real)
            # outside the support both mat and mat^dagger vanish, so the support
            # block has the part's PSD residual and every non-finite entry
            support = _support(mat)
            sub = mat if support.size == d else mat[np.ix_(support, support)]
            if not np.isfinite(sub).all():
                raise ValueError(f"part {name} has non-finite entries")
            res = max(float(np.max(np.abs(sub - sub.conj().T), initial=0.0)),
                      -float(np.linalg.eigvalsh((sub + sub.conj().T) / 2).min(initial=0.0)))
            # block entry (i, j) goes to party row i // p when i and j share c
            rows, at = np.unique(support // p, return_inverse=True)
            i, j = np.nonzero(support[:, None] % p == support % p)
            ab = np.zeros((2, len(rows), support.size), dtype=complex)
            ab[0, at[i], j], ab[1, at, np.arange(support.size)] = sub[i, j], 1
        checks.append(ConstraintCheck(f"psd[{name}]", res <= CCGO_TOL, res))
        level.append((key, [(rows, ab)]))

    # prefix lengths N -> 1: each reduced part is identity on its last slot's output;
    # tracing that slot and summing over completions gives the next level's parts
    for _ in range(n):
        shorter: dict[tuple, list] = {}
        for prefix, pairs in level:
            last = prefix[-1]   # last_O has place value 4**(slots after it in sorted order)
            res, traced = _slot_step(pairs, 4 ** (len(prefix) - 1 - sorted(prefix).index(last)))
            checks.append(ConstraintCheck(f"reduced[{''.join(prefix)}] = ~W (x) 1[{last}_O]",
                                          res <= CCGO_TOL, res))
            shorter.setdefault(prefix[:-1], []).append(traced)
        level = sorted(shorter.items())

    normalized = abs(total_trace - 2 ** n) <= CCGO_TRACE_RTOL * 2 ** n
    return CcgoReport(tuple(checks), total_trace, normalized)
