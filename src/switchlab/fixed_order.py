"""Fixed-gate-order simulation of the controlled-ordering gate, and
side-information strategies that decode the bundled tables without it.

The simulating circuit walks a common supersequence of the orderings; at
every step the gate named by the supersequence acts either on the target
wire (when that step belongs to the embedding of the active ordering) or on
the gate's private ancilla.  Every ancilla collects the same number of gate
applications in every branch, so the ancillas always disentangle.

Every gate acts on one wire, so each branch leaves a product state: the
wires are simulated one by one from a per-wire gate plan, and fidelities come
from target overlaps and an ancilla Gram matrix, with no d ** (N + 1) state.

The attack strategies assume the oracle is drawn from a known fixture table
(``switch.chart_fixture``) and identify the hidden column with a handful of
exact projective tests.  This module loads neither ``oracles`` nor
``supersequences``: a circuit takes its supersequence from the caller.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .linalg import EXACT_TEST_TOL, InvariantViolation, as_state, basis_state, kron_all
from .switch import _LABELS, OracleSet, PermutationSet, _ordering_products, _products, chart_fixture

if TYPE_CHECKING:
    from .supersequences import SupersequenceResult


@dataclass(frozen=True)
class FixedOrderCircuit:
    """Per-step usage plan: ``usage[s][x]`` is True when step s acts on the
    target wire for control value x (otherwise it acts on the ancilla of the
    step's gate)."""

    supersequence: str
    symbols: tuple[int, ...]
    usage: tuple[tuple[bool, ...], ...]
    perms: PermutationSet = field(repr=False)

    @property
    def query_count(self) -> int:
        return len(self.supersequence)

    @cached_property
    def wires(self) -> np.ndarray:
        """Read-only wire plan of shape (steps, P): ``wires[s, x]`` is 0 when
        step s acts on the target in branch x, else 1 + i for the ancilla of
        the step's gate i."""
        symbols = np.array(self.symbols)[:, None]
        wires = np.where(np.array(self.usage, dtype=bool), 0, 1 + symbols)
        wires.flags.writeable = False
        return wires

    @cached_property
    def plan(self) -> np.ndarray:
        """Read-only per-wire gate plan of shape (L, P, N + 1): ``plan[:, x, w]``
        lists the gates wire w of branch x meets, in order, padded at the front
        with the identity index N; L is the most gates on any one wire."""
        n = self.perms.N
        hits = self.wires[:, :, None] == np.arange(n + 1)   # [steps, P, N + 1]
        left = hits[::-1].cumsum(axis=0)[::-1]               # gates from step s on, per wire
        plan = np.full((left[0].max(),) + hits.shape[1:], n)
        step, x, w = np.nonzero(hits)
        plan[len(plan) - left[step, x, w], x, w] = np.array(self.symbols)[step]
        plan.flags.writeable = False
        return plan


def build_fixed_circuit(superseq: SupersequenceResult, perms: PermutationSet) -> FixedOrderCircuit:
    """Derive the usage plan from the recorded embeddings."""
    if superseq.perms.sigma != perms.sigma:
        raise ValueError("supersequence was computed for a different permutation set")
    if len(superseq.embeddings) != perms.P:
        raise ValueError("one embedding per ordering required")
    length = superseq.length
    symbols = tuple(_LABELS.index(ch) for ch in superseq.sequence)
    target_steps = [frozenset(emb) for emb in superseq.embeddings]
    usage = tuple(
        tuple(s in target_steps[x] for x in range(perms.P)) for s in range(length)
    )
    circuit = FixedOrderCircuit(superseq.sequence, symbols, usage, perms)
    _check_circuit(circuit)
    return circuit


def _check_circuit(circuit: FixedOrderCircuit) -> None:
    """The wire plan spells every ordering on the target.  Every other step
    parks its gate, so each branch then parks gate i (occurrences - 1) times
    and the ancillas end in the same state in every branch."""
    for x, ordering in enumerate(circuit.perms.sigma):   # wires[s, x] == 0 where usage[s][x]
        if tuple(i for i, row in zip(circuit.symbols, circuit.usage) if row[x]) != ordering:
            raise InvariantViolation(f"target steps of branch {x} do not spell its ordering")


def _checked_states(circuit: FixedOrderCircuit, oracle: OracleSet,
                    control: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    control = as_state(control)
    target = as_state(target)
    if control.size != circuit.perms.P:
        raise ValueError(f"control dimension {control.size} != P={circuit.perms.P}")
    if target.size != oracle.dim or oracle.N != circuit.perms.N:
        raise ValueError("oracle does not match the circuit")
    return control, target


def _wire_states(circuit: FixedOrderCircuit, mats: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Output of every wire of every branch for oracle stacks ``mats[S, N, d, d]``, shape
    ``[S, P, N + 1, d]``: wire 0 is the target, wire 1 + i the ancilla of gate i (from
    |0>); round l applies gate ``plan[l, x, w]`` (N: the identity) to wire w of branch x."""
    n_sets, n, _, d = mats.shape
    gates = np.empty((n_sets, n + 1, d, d), dtype=complex)
    gates[:, :n] = mats
    gates[:, n] = np.eye(d)
    states = np.zeros((n + 1, d, 1), dtype=complex)   # the target, then every ancilla at |0>
    states[0, :, 0] = target
    states[1:, 0] = 1.0
    for gate in circuit.plan:   # the first round broadcasts the start over sets and branches
        states = gates.take(gate, axis=1) @ states
    return states[..., 0]


def simulate_fixed_circuit(circuit: FixedOrderCircuit, oracle: OracleSet,
                           control: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Joint state over control (x) target (x) ancilla_A ... ancilla_N: each
    branch's weight times the Kronecker product of its wire states."""
    control, target = _checked_states(circuit, oracle, control, target)
    states = _wire_states(circuit, oracle.matrices()[None], target)[0]
    return np.concatenate([c * kron_all(wires) for c, wires in zip(control, states)])


def ancilla_factor(circuit: FixedOrderCircuit, oracle: OracleSet) -> np.ndarray:
    """Product state collected by the ancillas, identical for every branch:
    gate i hits its ancilla (occurrences of i) - 1 times."""
    zero = basis_state(oracle.dim, 0)
    return kron_all(_wire_states(circuit, oracle.matrices()[None], zero)[0, 0, 1:])


def _fidelities(circuit: FixedOrderCircuit, mats: np.ndarray, control: np.ndarray,
                target: np.ndarray, pis: np.ndarray | None = None) -> np.ndarray:
    """Switch-equivalence fidelities for oracle stacks ``mats[S, N, d, d]``, shape [S];
    ``pis[S, P, d, d]`` are their ordering products, computed when not given.  Branch x
    leaves c_x |x> |T_x> (x) |a_x1> ... |a_xN>, so the fidelity is alpha^dagger G alpha
    with alpha_x = |c_x|^2 <Pi_x t|T_x> and the Gram matrix G_xy = prod_i <a_xi|a_yi>."""
    states = _wire_states(circuit, mats, target)
    pis = _ordering_products(mats, circuit.perms.index) if pis is None else pis
    reference = target @ pis.swapaxes(-1, -2)                     # Pi_x |t>, [S, P, d]
    alpha = abs(control) ** 2 * (reference.conj() * states[:, :, 0]).sum(axis=-1)
    ancillas = states[:, :, 1:].swapaxes(1, 2)                   # [S, N, P, d]
    gram = (ancillas.conj() @ ancillas.swapaxes(-1, -2)).prod(axis=1)
    return (alpha.conj()[:, None] @ gram @ alpha[..., None])[:, 0, 0].real


def switch_equivalence_fidelity(circuit: FixedOrderCircuit, oracle: OracleSet,
                                control: np.ndarray, target: np.ndarray) -> float:
    """Overlap of the ancilla-reduced circuit output with the direct
    controlled-ordering evolution; 1 up to rounding for any valid circuit."""
    control, target = _checked_states(circuit, oracle, control, target)
    return float(_fidelities(circuit, oracle.matrices()[None], control, target,
                             _products(oracle, circuit.perms)[None])[0])


# ---------------------------------------------------------------------------
# Side-information strategies for the fixture tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QueryRecord:
    """One oracle use: which gate, what went in, what was measured."""

    gate_label: str
    input_state: tuple
    basis: str
    outcome: int  # +1 / -1 eigenvalue of the measured basis operator


@dataclass(frozen=True)
class AttackTranscript:
    queries: tuple[QueryRecord, ...]
    guessed_y: int
    table_guess: str | None = None

    @property
    def query_count(self) -> int:
        return len(self.queries)


_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
_ZERO = np.array([1.0, 0.0], dtype=complex)


def _exact_test(state_out: np.ndarray, basis: str) -> int:
    """Projective +-1 outcome; the fixture strategies only ever produce
    probabilities 0 or 1, which is asserted."""
    ref = _PLUS if basis == "X" else _ZERO
    p_plus = abs(np.vdot(ref, state_out)) ** 2
    if min(p_plus, 1.0 - p_plus) > EXACT_TEST_TOL:
        raise InvariantViolation(f"{basis}-basis test outcome is not deterministic")
    return 1 if p_plus > 0.5 else -1


def _query(oracle: OracleSet, index: int, state_in: np.ndarray, basis: str) -> tuple[QueryRecord, int]:
    out = oracle.gates[index].matrix @ state_in
    outcome = _exact_test(out, basis)
    rec = QueryRecord(_LABELS[index], tuple(np.round(state_in, 12)), basis, outcome)
    return rec, outcome


def _expect_column(oracle: OracleSet, table: str, y: int) -> None:
    for fix in chart_fixture(table):
        if fix.claimed_y != y or len(oracle.gates) != len(fix.gates):
            continue
        if all(np.max(np.abs(a.matrix - b.matrix)) <= EXACT_TEST_TOL
               for a, b in zip(oracle.gates, fix.gates)):
            return
    raise ValueError(f"oracle is not column {y} of {table}")


def attack_table1(oracle: OracleSet) -> AttackTranscript:
    """X-basis tests on the first and third gates distinguish identity from
    Z and decode the column directly; two queries, always correct."""
    rec_a, out_a = _query(oracle, 0, _PLUS, "X")
    rec_c, out_c = _query(oracle, 2, _PLUS, "X")
    y = {(1, 1): 0, (-1, -1): 1, (1, -1): 2, (-1, 1): 3}[(out_a, out_c)]   # -1: a Z gate
    _expect_column(oracle, "table1", y)
    return AttackTranscript((rec_a, rec_c), y, "table1")


def attack_table2(oracle: OracleSet) -> AttackTranscript:
    """X-test the third gate (reveals column 1), Z-test the fourth (reveals
    column 3); if both look trivial, run the two remaining gates in sequence
    on |0>: the product is the identity for column 0 and a half-turn for
    column 2, so one more Z-test separates them.  At most four queries."""
    queries = []
    rec_c, out_c = _query(oracle, 2, _PLUS, "X")
    queries.append(rec_c)
    if out_c == -1:
        y = 1
    else:
        rec_d, out_d = _query(oracle, 3, _ZERO, "Z")
        queries.append(rec_d)
        if out_d == -1:
            y = 3
        else:
            mid = oracle.gates[0].matrix @ _ZERO
            # first gate feeds the second, unmeasured
            queries.append(QueryRecord(_LABELS[0], tuple(np.round(_ZERO, 12)), "none", 0))
            rec_b, out_b = _query(oracle, 1, mid, "Z")
            queries.append(rec_b)
            y = 0 if out_b == 1 else 2
    _expect_column(oracle, "table2", y)
    return AttackTranscript(tuple(queries), y, "table2")


def attack_combined(oracle: OracleSet) -> AttackTranscript:
    """Identify the table first: a Z-test on the fourth gate separates X
    (first table) from identity (second table, columns 0-2); then dispatch.
    The shared column 3 decodes identically either way."""
    rec_d, out_d = _query(oracle, 3, _ZERO, "Z")
    inner = attack_table1(oracle) if out_d == -1 else attack_table2(oracle)
    return AttackTranscript((rec_d,) + inner.queries, inner.guessed_y, inner.table_guess)
