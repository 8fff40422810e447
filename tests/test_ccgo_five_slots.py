"""The classical-control verifier at five slots, on ProcessMatrix parts.

A dense five-slot part has 4096 rows (268 MB), and 120 of them would need
32 GB, so these parts go in as factors and are never made dense."""
import itertools
import tracemalloc

import numpy as np

from switchlab import (PermutationSet, basis_state, build_effective_process,
                       definite_order_process, hadamard_m4, random_state,
                       verify_ccgo_decomposition)
from switchlab.processes import ProcessMatrix

ORDERINGS = list(itertools.permutations("ABCDE"))
SIGMA_5 = PermutationSet.from_strings(["ABCDE", "ACBED", "DCAEB", "EBADC"])


def test_weighted_combs_pass_at_five_slots():
    rng = np.random.default_rng(50)
    weights, target = rng.dirichlet(np.ones(len(ORDERINGS))), random_state(2, rng)
    answers = rng.integers(0, 4, size=len(ORDERINGS))
    combs = [definite_order_process("".join(key), target, int(y))
             for key, y in zip(ORDERINGS, answers)]
    parts = {key: ProcessMatrix(q ** 0.5 * comb.factor)
             for key, q, comb in zip(ORDERINGS, weights, combs)}
    tracemalloc.start()
    try:
        report = verify_ccgo_decomposition(parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 120 psd + 120 + 120 + 60 + 20 + 5 product-form constraints
    assert len(report.checks) == 445
    assert report.passed, [c.name for c in report.failures()]
    assert report.normalized and abs(report.trace - 32.0) <= 1e-9
    assert peak < 32 * 2 ** 20   # no dense part: one would take 256 MiB


def test_switch_in_one_slot_fails_exactly_its_prefix_levels():
    # the controlled-ordering process of four orderings of five slots, put
    # in the slot of its first ordering: it is PSD and normalized, but not
    # identity on the last output at any level above the first slot
    zero = ProcessMatrix(np.zeros((4 ** 5, 4, 1)))
    parts = {key: zero for key in ORDERINGS}
    parts[tuple("ABCDE")] = build_effective_process(basis_state(2, 0), hadamard_m4(), SIGMA_5)
    report = verify_ccgo_decomposition(parts)
    assert report.normalized and abs(report.trace - 32.0) <= 1e-9
    assert [c.name for c in report.failures()] == [
        "reduced[ABCDE] = ~W (x) 1[E_O]", "reduced[ABCD] = ~W (x) 1[D_O]",
        "reduced[ABC] = ~W (x) 1[C_O]", "reduced[AB] = ~W (x) 1[B_O]"]
