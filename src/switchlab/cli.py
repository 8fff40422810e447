"""Command-line front end: every analysis as a reproducible, scriptable
command emitting one JSON report on stdout.

Exit codes: 0 success, 1 stdout closed early (the reader went away before
the report was written), 2 usage or parameter error, 3 internal invariant
violation.  With fixed arguments and seed the JSON payload is byte-identical
across runs except for the elapsed_ms field.

Each command imports the modules it runs inside its handler, so a cold
command loads only those.

A command runs OpenBLAS with one thread: no command does enough BLAS work
to gain from more, and an idle OpenBLAS worker busy-waits about 130 ms
after numpy loads.  OpenBLAS reads OPENBLAS_NUM_THREADS once, as numpy
loads it, so this holds only when the CLI is the first to import numpy; a
value the caller sets is kept, and no child process sees the variable.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

_ONE_BLAS_THREAD = "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
if _ONE_BLAS_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as np
if _ONE_BLAS_THREAD:
    del os.environ["OPENBLAS_NUM_THREADS"]

from .gates import NamedGate, SignMatrix, gate_set_G, hadamard_m4, pauli, sylvester_hadamard
from .linalg import FIDELITY_FLOOR, InvariantViolation, _as_index, basis_state
from .switch import (NoiseModel, OracleSet, PermutationSet, SIGMA_STAR, chart_fixture,
                     run_hadamard_algorithm, sample_shots)


# ---------------------------------------------------------------------------
# Input resolution: presets and JSON file formats
# ---------------------------------------------------------------------------

def _read_file(path: str, what: str, parse):
    """``parse`` applied to the JSON held in ``path``; its KeyError, TypeError
    or ValueError becomes a ValueError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:   # ValueError: not UTF-8, or not JSON
        raise ValueError(f"cannot read JSON file {path!r}: {exc}") from exc
    try:
        return parse(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {what} {path!r}: {exc}") from exc


def _gates(entries) -> list[NamedGate]:
    """Gate file: list of {"name": str, "matrix": [[[re,im],[re,im]], ...]}."""
    if not isinstance(entries, list):
        raise ValueError('expected a JSON list of {"name", "matrix"} entries')
    return [NamedGate(str(e["name"]),
                      np.array([[complex(re, im) for re, im in row] for row in e["matrix"]]))
            for e in entries]


def _perms(words) -> PermutationSet:
    """Permutation file: list of label strings, identity first."""
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise ValueError("expected a JSON list of label strings such as [\"ABCD\", \"BADC\"]")
    return PermutationSet.from_strings(words)


def _matrix(rows) -> SignMatrix:
    """Sign-matrix file: list of integer rows."""
    if not isinstance(rows, list):
        raise ValueError("expected a JSON list of integer rows")
    return SignMatrix(np.array(rows, dtype=np.int64))


def resolve_gates(spec: str) -> list[NamedGate]:
    if spec == "G":
        return gate_set_G()
    if spec == "pauli":
        return [pauli(n) for n in "IZXY"]
    if spec == "identity-only":
        return [pauli("I")]
    return _read_file(spec, "gate file", _gates)


def resolve_perms(spec: str) -> PermutationSet:
    if spec == "sigma-star":
        return SIGMA_STAR
    return _read_file(spec, "permutation file", _perms)


def resolve_matrix(spec: str, p: int) -> SignMatrix:
    if spec == "M4":
        if p != 4:
            raise ValueError("matrix preset M4 needs P = 4 permutations")
        return hadamard_m4()
    if spec == "sylvester":
        k = int(np.log2(p))
        if 2 ** k != p:
            raise ValueError("sylvester preset needs P a power of two")
        return sylvester_hadamard(k)
    return _read_file(spec, "sign-matrix file", _matrix)


def resolve_oracle(table: str, column: int, p: int) -> OracleSet:
    if table == "thirty":
        fixtures = chart_fixture("thirty")
        if not 0 <= column < len(fixtures):
            raise ValueError(f"thirty-set index {column} out of range")
        return fixtures[column]
    if table in ("1", "2"):
        fixtures = chart_fixture(f"table{table}")
        hits = [f for f in fixtures if f.claimed_y == column]
        if not hits:
            raise ValueError(f"table {table} has no column {column}")
        return hits[0]
    gates = _read_file(table, "oracle file", _gates)
    if column >= p:
        raise ValueError(f"claimed column {column} out of range for P = {p}")
    return OracleSet(gates, claimed_y=column)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_scs(args) -> dict:
    from .supersequences import quartet_census, scs
    if args.census:
        census = quartet_census()
        return {
            "histogram": {str(k): v for k, v in census.histogram.items()},
            "total_quartets": census.total,
        }
    if not args.permutations:
        raise ValueError("give permutations or --census")
    perms = PermutationSet.from_strings(args.permutations)
    result = scs(perms)
    return {
        "length": result.length,
        "sequence": result.sequence,
        "embeddings": {w: list(e) for w, e in zip(perms.to_strings(), result.embeddings)},
    }


def cmd_enumerate(args) -> dict:
    from .oracles import enumerate_promise_sets, equivalence_classes, verify_classification
    gates = resolve_gates(args.gates)
    perms = resolve_perms(args.perms)
    matrix = resolve_matrix(args.matrix, perms.P)
    census, sets = enumerate_promise_sets(gates, perms, matrix)
    results: dict = {
        "total": census.total,
        "per_column": list(census.per_column),
        "gate_count": len(gates),
    }
    if args.list:
        results["sets"] = [{"gates": list(s.names()), "y": s.claimed_y} for s in sets]
    if args.classes:
        strict = equivalence_classes(sets, phase_sensitive=True)
        verify_classification(strict, sets)
        loose = equivalence_classes(sets, phase_sensitive=False)
        verify_classification(loose, sets)
        results["classes"] = {
            "phase_sensitive": strict.n_classes,
            "phase_insensitive": loose.n_classes,
        }
    return results


def cmd_run(args) -> dict:
    perms = resolve_perms(args.perms)
    oracle = resolve_oracle(args.table, args.column, perms.P)
    matrix = resolve_matrix(args.matrix, perms.P)
    noise = NoiseModel(gamma=args.gamma, epsilon=args.epsilon)
    result = run_hadamard_algorithm(oracle, perms, matrix, basis_state(2, 0), noise)
    out = {
        "distribution": [round(float(p), 12) for p in result.outcome_distribution],
        "decoded_y": result.decoded_y,
        "success_probability": round(float(result.success_probability), 12),
    }
    if args.shots is not None:
        counts = sample_shots(result, args.shots, args.seed if args.seed is not None else 0)
        out["histogram"] = [int(c) for c in counts]
        out["shots"] = args.shots
    return out


def cmd_circuit(args) -> dict:
    from .fixed_order import build_fixed_circuit, switch_equivalence_fidelity
    from .supersequences import scs
    perms = resolve_perms(args.perms)
    oracle = resolve_oracle(args.table, args.column, perms.P)
    superseq = scs(perms)
    circuit = build_fixed_circuit(superseq, perms)
    control = np.full(perms.P, 1.0 / np.sqrt(perms.P), dtype=complex)
    fidelity = switch_equivalence_fidelity(circuit, oracle, control, basis_state(2, 0))
    if fidelity < 1.0 - FIDELITY_FLOOR:
        raise InvariantViolation(f"circuit/switch fidelity {fidelity} below 1 - {FIDELITY_FLOOR}")
    return {
        "supersequence": circuit.supersequence,
        "circuit_queries": circuit.query_count,
        "switch_queries": perms.N,
        "query_gap": circuit.query_count - perms.N,
        "fidelity": round(float(fidelity), 12),
    }


def cmd_witness(args) -> dict:
    from .processes import (build_effective_process, success_probability,
                            uniform_witness, witness_operator)
    perms = resolve_perms(args.perms)
    matrix = resolve_matrix(args.matrix, perms.P)
    if args.components in ("table1-uniform", "table2-uniform", "thirty-uniform"):
        fixtures = chart_fixture(args.components.split("-")[0])
        witness = uniform_witness(fixtures)
    else:
        from .oracles import check_promise

        def components(entries):
            # list of {"gates": [...], "y": int, "q": float}; stated columns
            # are re-verified against the promise when it holds
            comps = []
            for e in entries:
                oracle = OracleSet(_gates(e["gates"]))
                y = _as_index(e["y"], "component column")
                verdict = check_promise(oracle, perms, matrix)
                if verdict.satisfied and verdict.y != y:
                    raise ValueError(f"component column {y} disagrees with verified {verdict.y}")
                comps.append((oracle, y, float(e["q"])))
            return comps
        witness = witness_operator(_read_file(args.components, "components file", components))
    process = build_effective_process(basis_state(2, 0), matrix, perms)
    p_succ = success_probability(process, witness)
    return {
        "p_succ": round(float(p_succ), 12),
        "process_trace": round(process.trace, 9),
        "components": len(witness.components),
    }


def cmd_attack(args) -> dict:
    from .fixed_order import attack_combined, attack_table1, attack_table2
    strategies = {"1": attack_table1, "2": attack_table2, "auto": attack_combined}
    if args.table not in strategies:
        raise ValueError("attack table must be 1, 2 or auto")
    # the hidden oracle is drawn from --source when the strategy is auto,
    # otherwise from the table the strategy targets
    source = args.source if args.table == "auto" else args.table
    if source not in ("1", "2"):
        raise ValueError("attack source must be 1 or 2")
    oracle = resolve_oracle(source, args.column, 4)
    transcript = strategies[args.table](oracle)
    return {
        "guessed_y": transcript.guessed_y,
        "true_y": oracle.claimed_y,
        "success": transcript.guessed_y == oracle.claimed_y,
        "table_guess": transcript.table_guess,
        "queries": [
            {"gate": q.gate_label, "basis": q.basis, "outcome": q.outcome}
            for q in transcript.queries
        ],
        "query_count": transcript.query_count,
    }


# ---------------------------------------------------------------------------
# Rendering and entry point
# ---------------------------------------------------------------------------

def _render_pretty(envelope: dict) -> str:
    lines = [f"command: {envelope['command']}"]
    for key, value in sorted(envelope["parameters"].items()):
        lines.append(f"  {key} = {value}")
    lines.append("results:")
    for key, value in sorted(envelope["results"].items()):
        if isinstance(value, dict):
            lines.append(f"  {key}:")
            for k2, v2 in value.items():
                lines.append(f"    {k2:>8} : {v2}")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"  {key}: ({len(value)} entries)")
        else:
            lines.append(f"  {key}: {value}")
    return "\n".join(lines)


def _render_csv(results: dict) -> str:
    histogram = results.get("histogram")
    if histogram is None:
        raise ValueError("this command produced no histogram to export as CSV")
    lines = ["outcome,count"]
    if isinstance(histogram, dict):
        for k in sorted(histogram, key=lambda s: int(s)):
            lines.append(f"{k},{histogram[k]}")
    else:
        for i, c in enumerate(histogram):
            lines.append(f"{i},{c}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="switchlab",
                                     description="quantum-controlled gate-order toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    # option groups shared by several commands, as argparse parent parsers
    output, perms, matrix, oracle = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    output.add_argument("--pretty", action="store_true", help="human-readable output")
    output.add_argument("--csv", action="store_true", help="emit histograms as CSV")
    perms.add_argument("--perms", default="sigma-star", help="sigma-star | perms-file.json")
    matrix.add_argument("--matrix", default="M4", help="M4 | sylvester | matrix-file.json")
    oracle.add_argument("--table", default="1", help="1 | 2 | thirty | oracle-file.json")
    oracle.add_argument("--column", type=int, required=True, help="hidden column y")

    p = sub.add_parser("scs", parents=[output], help="shortest common supersequence of orderings")
    p.add_argument("permutations", nargs="*", help="orderings, identity first (e.g. ABCD BADC)")
    p.add_argument("--census", action="store_true",
                   help="histogram of minimal lengths over all identity-containing quartets")
    p.set_defaults(handler=cmd_scs)

    p = sub.add_parser("enumerate", parents=[perms, matrix, output],
                       help="enumerate promise-satisfying gate assignments")
    p.add_argument("--gates", default="G", help="G | pauli | identity-only | gate-file.json")
    p.add_argument("--classes", action="store_true", help="also count equivalence classes")
    p.add_argument("--list", action="store_true", help="include the full set listing")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("run", parents=[oracle, perms, matrix, output],
                       help="run the single-shot decoding algorithm")
    p.add_argument("--gamma", type=float, default=0.0, help="control dephasing in [0,1]")
    p.add_argument("--epsilon", type=float, default=0.0, help="gate overrotation (radians)")
    p.add_argument("--shots", type=int, default=None, help="sample a finite histogram")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("circuit", parents=[perms, oracle, output],
                       help="fixed-order simulation vs the switch")
    p.set_defaults(handler=cmd_circuit)

    p = sub.add_parser("witness", parents=[perms, matrix, output],
                       help="success probability of a witness on the process")
    p.add_argument("--components", default="table1-uniform",
                   help="table1-uniform | table2-uniform | thirty-uniform | file.json")
    p.set_defaults(handler=cmd_witness)

    p = sub.add_parser("attack", parents=[output],
                       help="side-information strategies on the fixture tables")
    p.add_argument("--table", default="auto", help="1 | 2 | auto")
    p.add_argument("--column", type=int, required=True)
    p.add_argument("--source", default="1", help="with --table auto: draw the oracle from table 1 or 2")
    p.set_defaults(handler=cmd_attack)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        results = args.handler(args)
        rendered = _render_csv(results) if args.csv else None
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = int((time.monotonic() - start) * 1000)
    parameters = {
        k: v for k, v in vars(args).items()
        if k not in ("handler", "command", "pretty", "csv") and v is not None
    }
    envelope = {
        "command": args.command,
        "parameters": parameters,
        "results": results,
        "seed": getattr(args, "seed", None),
        "elapsed_ms": elapsed_ms,
    }
    if rendered is None:
        rendered = _render_pretty(envelope) if args.pretty else json.dumps(envelope, sort_keys=True)
    try:
        print(rendered)
        sys.stdout.flush()   # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # Python's documented SIGPIPE pattern: the exit flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
