"""switchlab: simulation and analysis of quantum-controlled gate orders.

The package simulates the controlled-ordering (quantum N-switch) gate and
the single-shot promise-decoding algorithms built on it, enumerates the gate
sets that satisfy the sign promise, computes fixed-gate-order query costs
via shortest common supersequences, simulates the equivalent fixed-order
circuit and side-information attacks, and evaluates process-matrix witness
values.

Importing the package loads none of its modules: each public name below is
resolved on first access (PEP 562), importing only the module that defines
it, so a caller pays only for the modules it uses.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "gates": ("NamedGate", "SignMatrix", "fourier_matrix", "gate_set_G", "hadamard_m4",
              "pauli", "sylvester_hadamard"),
    "linalg": ("ATOL", "InvariantViolation", "basis_state", "choi_vector", "kron_all",
               "random_state", "random_unitary"),
    "oracles": ("EnumerationCensus", "EquivalenceClassification", "PromiseVerdict",
                "bloch_rotation", "check_promise", "enumerate_promise_sets",
                "equivalence_classes", "verify_classification"),
    "fixed_order": ("AttackTranscript", "FixedOrderCircuit", "QueryRecord", "ancilla_factor",
                    "attack_combined", "attack_table1", "attack_table2", "build_fixed_circuit",
                    "simulate_fixed_circuit", "switch_equivalence_fidelity"),
    "processes": ("CcgoReport", "ConstraintCheck", "ProcessMatrix", "build_effective_ket",
                  "build_effective_process", "definite_order_process", "oracle_choi_ket",
                  "success_probability", "uniform_witness", "verify_ccgo_decomposition",
                  "witness_operator"),
    "supersequences": ("QuartetCensus", "SupersequenceResult", "embed_sequence",
                       "is_supersequence", "quartet_census", "scs"),
    "switch": ("NoiseModel", "OracleSet", "PermutationSet", "RunResult", "SIGMA_STAR",
               "all_products", "apply_n_switch", "chart_fixture",
               "run_hadamard_algorithm", "sample_shots"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value   # later lookups skip this hook
    return value


def __dir__():
    return list(__all__)
