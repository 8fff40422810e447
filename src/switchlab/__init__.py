"""switchlab: simulation and analysis of quantum-controlled gate orders.

The package simulates the controlled-ordering (quantum N-switch) gate and
the single-shot promise-decoding algorithms built on it, enumerates the gate
sets that satisfy the sign promise, computes fixed-gate-order query costs
via shortest common supersequences, simulates the equivalent fixed-order
circuit and side-information attacks, and evaluates process-matrix witness
values.
"""
from .gates import (NamedGate, SignMatrix, fourier_matrix, gate_set_G,
                    hadamard_m4, pauli, sylvester_hadamard)
from .linalg import (ATOL, InvariantViolation, LabeledSpace, basis_state,
                     choi_vector, fidelity, kron_all, partial_trace,
                     random_state, random_unitary)
from .oracles import (EnumerationCensus, EquivalenceClassification,
                      PromiseVerdict, bloch_rotation, chart_fixture,
                      check_promise, enumerate_promise_sets,
                      equivalence_classes, find_conjugator,
                      find_rotation_conjugator, verify_classification)
from .fixed_order import (AttackTranscript, FixedOrderCircuit, QueryRecord,
                          ancilla_factor, attack_combined, attack_table1,
                          attack_table2, build_fixed_circuit,
                          simulate_fixed_circuit, switch_equivalence_fidelity)
from .processes import (CcgoReport, ConstraintCheck, ProcessMatrix,
                        Superinstrument, WitnessOperator,
                        build_effective_ket, build_effective_process,
                        build_switch_process_ket, definite_order_process,
                        oracle_choi_ket, success_probability,
                        superinstrument, uniform_witness,
                        verify_ccgo_decomposition, witness_operator)
from .supersequences import (QuartetCensus, SupersequenceResult,
                             embed_sequence, is_supersequence, quartet_census,
                             scs)
from .switch import (NoiseModel, OracleSet, PermutationSet, RunResult,
                     SIGMA_STAR, all_products, apply_n_switch,
                     dimension_constraint_ok, run_fourier_algorithm,
                     run_hadamard_algorithm, sample_shots)

__version__ = "0.1.0"

__all__ = [
    "ATOL", "AttackTranscript", "CcgoReport", "ConstraintCheck",
    "EnumerationCensus", "EquivalenceClassification", "FixedOrderCircuit",
    "InvariantViolation", "LabeledSpace", "NamedGate", "NoiseModel",
    "OracleSet", "PermutationSet", "ProcessMatrix", "PromiseVerdict",
    "QuartetCensus", "QueryRecord", "RunResult", "SIGMA_STAR", "SignMatrix",
    "Superinstrument", "SupersequenceResult", "WitnessOperator",
    "all_products", "ancilla_factor", "apply_n_switch", "attack_combined",
    "attack_table1", "attack_table2", "basis_state", "bloch_rotation",
    "build_effective_ket", "build_effective_process", "build_fixed_circuit",
    "build_switch_process_ket", "chart_fixture", "check_promise",
    "choi_vector", "definite_order_process", "dimension_constraint_ok",
    "embed_sequence", "enumerate_promise_sets", "equivalence_classes",
    "fidelity", "find_conjugator", "find_rotation_conjugator",
    "fourier_matrix", "gate_set_G", "hadamard_m4", "is_supersequence",
    "kron_all", "oracle_choi_ket", "partial_trace", "pauli", "quartet_census",
    "random_state", "random_unitary", "run_fourier_algorithm",
    "run_hadamard_algorithm", "sample_shots", "scs", "simulate_fixed_circuit",
    "success_probability", "superinstrument", "switch_equivalence_fidelity",
    "sylvester_hadamard", "uniform_witness", "verify_ccgo_decomposition",
    "verify_classification", "witness_operator",
]
