#!/usr/bin/env python3
"""The process-matrix view: one operator, every success probability.

Fixing the algorithm's preparations and readout turns the whole experiment
into a positive operator over the gate slots plus the readout register.  The
success probability for any oracle table is then a single trace against a
witness built from the table's Choi projectors, and decompositions that
would certify classically controlled orderings can be checked constraint by
constraint.
"""
import itertools

import numpy as np

from switchlab import (SIGMA_STAR, ProcessMatrix, basis_state, build_effective_process,
                       chart_fixture, definite_order_process,
                       enumerate_promise_sets, gate_set_G, hadamard_m4,
                       success_probability, superinstrument, uniform_witness,
                       verify_ccgo_decomposition, witness_operator)

m4 = hadamard_m4()
process = build_effective_process(basis_state(2, 0), m4)
rows = len(process.factor) * process.P   # W = A A^dagger over (parties, c), kept as A
print(f"effective process: {rows}x{rows}, trace {process.trace:.1f}")

print("\n-- every promise-satisfying set scores exactly 1 --")
census, sets = enumerate_promise_sets(gate_set_G(), SIGMA_STAR, m4)
values = [success_probability(process, witness_operator([(s, s.claimed_y, 1.0)]))
          for s in sets]
print(f"{census.total} sets, worst value {min(values):.12f}")

print("\n-- a fixed-order process cannot do better than guessing the column --")
for answer in range(4):
    fixed = definite_order_process("ABCD", basis_state(2, 0), answer_y=answer)
    val = success_probability(fixed, uniform_witness(chart_fixture("table1")))
    print(f"  always answering {answer}: p = {val:.2f}")

print("\n-- per-outcome reduction --")
si = superinstrument(process)
print("block traces:", [round(float(np.trace(p).real), 3) for p in si],
      "-> sum", round(float(sum(np.trace(p).real for p in si)), 3))

print("\n-- checking the decomposition constraints of classical order control --")
# every part goes in as its factor: the verifier never builds a dense matrix
zero = ProcessMatrix(np.zeros((256, 4, 1)))
parts = {key: zero for key in itertools.permutations("ABCD")}
parts[("A", "B", "C", "D")] = definite_order_process("ABCD", basis_state(2, 0), answer_y=0)
report = verify_ccgo_decomposition(parts)
print(f"definite-order comb: {len(report.checks)} constraints, "
      f"passed = {report.passed}, trace = {report.trace:.1f}")

parts[("A", "B", "C", "D")] = process
report = verify_ccgo_decomposition(parts)
print(f"controlled-ordering process in one slot: passed = {report.passed}")
print("first violated constraints:",
      [c.name for c in report.failures()[:3]])
