"""Fixed-gate-order simulation of the controlled-ordering gate, and
side-information strategies that decode the bundled tables without it.

The simulating circuit walks a common supersequence of the orderings; at
every step the gate named by the supersequence acts either on the target
wire (when that step belongs to the embedding of the active ordering) or on
the gate's private ancilla.  Every ancilla collects the same number of gate
applications in every branch, so the ancillas always disentangle.

The attack strategies assume the oracle is drawn from a known fixture table
and identify the hidden column with a handful of exact projective tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import EXACT_TEST_TOL, InvariantViolation, as_state, basis_state, kron_all
from .oracles import chart_fixture
from .supersequences import SupersequenceResult
from .switch import _LABELS, OracleSet, PermutationSet, _branch_rows, _ordering_products, _products


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
    symbols = np.array(circuit.symbols)
    for x, ordering in enumerate(circuit.perms.sigma):
        if tuple(symbols[circuit.wires[:, x] == 0]) != ordering:
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


def _joint_states(circuit: FixedOrderCircuit, mats: np.ndarray,
                  control: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Circuit output for oracle stacks ``mats[S, N, d, d]``, shape
    ``[S, P, d ** (N + 1)]``, every control branch simulated at once.

    ``wires[S, P, N + 1, d]`` holds the target and one ancilla per gate label
    (starting in |0>) of every branch; each step gathers the wire its gate
    acts on in each branch, applies the gate and scatters the result back.
    """
    n_sets, n, d = mats.shape[0], mats.shape[1], mats.shape[-1]
    p = control.size
    wires = np.zeros((n_sets, p, n + 1, d), dtype=complex)
    wires[:, :, 0] = target
    wires[:, :, 1:, 0] = 1.0
    flat = wires.reshape(n_sets, p * (n + 1), d)   # wire w of branch x is row x (N + 1) + w
    gates_t = mats.swapaxes(-1, -2)    # v @ U^T applies U to the row vectors v
    for i, rows in zip(circuit.symbols, circuit.wires + (n + 1) * np.arange(p)):
        flat[:, rows] = flat[:, rows] @ gates_t[:, i]
    joint = wires[:, :, 0]
    for k in range(1, n + 1):   # target (x) ancilla_A (x) ... (x) ancilla_N, first slowest
        joint = (joint[..., :, None] * wires[:, :, k, None, :]).reshape(n_sets, p, -1)
    return control[:, None] * joint


def simulate_fixed_circuit(circuit: FixedOrderCircuit, oracle: OracleSet,
                           control: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Joint state over control (x) target (x) ancilla_A ... ancilla_N.

    Each control branch evolves deterministically per the wire plan; one
    ancilla per gate label starts in |0>.
    """
    control, target = _checked_states(circuit, oracle, control, target)
    return _joint_states(circuit, oracle.matrices()[None], control, target).reshape(-1)


def ancilla_factor(circuit: FixedOrderCircuit, oracle: OracleSet) -> np.ndarray:
    """Product state collected by the ancillas, identical for every branch:
    gate i hits its ancilla (occurrences of i) - 1 times."""
    zero = basis_state(oracle.dim, 0)
    return kron_all([np.linalg.matrix_power(u, circuit.symbols.count(i) - 1) @ zero
                     for i, u in enumerate(oracle.matrices())])


def _fidelities(circuit: FixedOrderCircuit, mats: np.ndarray, control: np.ndarray,
                target: np.ndarray, pis: np.ndarray | None = None) -> np.ndarray:
    """Switch-equivalence fidelities for oracle stacks ``mats[S, N, d, d]``, shape [S];
    ``pis[S, P, d, d]`` are their ordering products, computed when not given."""
    joint = _joint_states(circuit, mats, control, target)
    pis = _ordering_products(mats, circuit.perms.index) if pis is None else pis
    reference = _branch_rows(pis, control, target[None])
    # the ancillas are the trailing factors: with J the joint state as a
    # (control, target) x ancillas matrix, the reduced state is J J^dagger
    n_sets, size = len(mats), reference[0].size
    overlap = reference.reshape(n_sets, 1, size).conj() @ joint.reshape(n_sets, size, -1)
    return (overlap.real ** 2 + overlap.imag ** 2).sum(axis=(1, 2))


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
        if fix.claimed_y != y:
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
