"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.

Out of scope by design: hardware-dependent experimental success rates and
the solver-dependent classical-control bounds (they need an SDP solver and
an external cone characterization); this suite covers everything that is
deterministically reproducible.
"""
import time

import numpy as np

from switchlab import (NoiseModel, SIGMA_STAR, all_products, ancilla_factor,
                       apply_n_switch, attack_combined, attack_table1,
                       attack_table2, basis_state, build_effective_process,
                       build_fixed_circuit, chart_fixture, check_promise,
                       embed_sequence,
                       enumerate_promise_sets, equivalence_classes,
                       gate_set_G, hadamard_m4, is_supersequence, kron_all,
                       quartet_census, random_state, run_hadamard_algorithm,
                       sample_shots, scs, simulate_fixed_circuit,
                       success_probability, switch_equivalence_fidelity,
                       sylvester_hadamard, verify_classification,
                       witness_operator)
from switchlab.fixed_order import _fidelities
from switchlab.switch import _ordering_products, _readout


def report(number: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_01_quartet_census():
    start = time.monotonic()
    census = quartet_census()
    elapsed = time.monotonic() - start
    ok = (census.total == 1771
          and census.histogram == {6: 37, 7: 946, 8: 779, 9: 9}
          and elapsed < 10.0)
    report(1, ok, f"census {census.histogram} over {census.total} quartets "
                  f"in {elapsed:.2f}s (< 10 s)")


def test_criterion_02_star_quartet_and_gap():
    result = scs(SIGMA_STAR)
    covers = all(is_supersequence("ACBADACDB", w)[0] for w in SIGMA_STAR.to_strings())
    gap = result.length - SIGMA_STAR.N
    ok = result.length == 9 and covers and gap == 5
    report(2, ok, f"minimal length {result.length}, ACBADACDB valid supersequence: "
                  f"{covers}, query gap 9 - 4 = {gap}")


def test_criterion_03_enumeration(promise_sets):
    start = time.monotonic()
    census, _ = enumerate_promise_sets(gate_set_G(), SIGMA_STAR, hadamard_m4())
    elapsed = time.monotonic() - start
    ok = (census.total == 460 and census.per_column == (316, 60, 42, 42)
          and elapsed < 5.0)
    report(3, ok, f"{census.total} sets, per column {census.per_column}, "
                  f"in {elapsed:.2f}s (< 5 s)")


def test_criterion_04_chart_fixtures(m4):
    failures = []
    for which in ("table1", "table2", "thirty"):
        for fix in chart_fixture(which):
            verdict = check_promise(fix, SIGMA_STAR, m4)
            if not verdict.satisfied or verdict.y != fix.claimed_y:
                failures.append((which, fix.names(), fix.claimed_y, verdict))
    ok = not failures
    report(4, ok, f"8 table columns + 30 sets verified, {len(failures)} failures")


def test_criterion_05_noiseless_unit_success(promise_sets, m4):
    _, sets = promise_sets
    rng = np.random.default_rng(2024)
    targets = np.stack([basis_state(2, 0)] + [random_state(2, rng) for _ in range(100)])
    pis = _ordering_products(np.stack([s.matrices() for s in sets]), SIGMA_STAR.index)
    # [set, target, outcome]: the kernel batches the sets, one target per call
    dist = np.stack([_readout(pis, m4._readout, t, 0.0) for t in targets], axis=1)
    columns = np.array([s.claimed_y for s in sets])
    success = dist[np.arange(len(sets)), :, columns]
    worst = float(success.min())
    # the batch agrees with the public one-set, one-target call
    cross_err = max(abs(run_hadamard_algorithm(sets[i], SIGMA_STAR, m4, targets[t])
                        .success_probability - success[i, t])
                    for i in range(0, len(sets), 46) for t in (0, 50, 100))
    ok = len(sets) == 460 and worst >= 1 - 1e-9 and cross_err <= 1e-12
    report(5, ok, f"{len(sets)} sets x {len(targets)} targets, worst success "
                  f"probability 1 - {1 - worst:.2e} (tol 1e-9), scalar cross-check "
                  f"{cross_err:.1e}")


def test_criterion_06_circuit_equivalence(promise_sets, m4):
    _, sets = promise_sets
    circuit = build_fixed_circuit(embed_sequence("ACBADACDB", SIGMA_STAR), SIGMA_STAR)
    control = m4.as_gate()[:, 0]
    psi = basis_state(2, 0)
    mats = np.stack([s.matrices() for s in sets])
    fids = _fidelities(circuit, mats, control, psi, _ordering_products(mats, circuit.perms.index))
    worst = float(fids.min())
    cross_err = max(abs(switch_equivalence_fidelity(circuit, sets[i], control, psi) - fids[i])
                    for i in range(0, len(sets), 46))
    # ancilla factor check for the nine-step circuit
    orc = chart_fixture("table1")[1]
    mats = orc.matrices()
    zero = basis_state(2, 0)
    expected = kron_all([mats[0] @ mats[0] @ zero, mats[1] @ zero,
                         mats[2] @ zero, mats[3] @ zero])
    anc_ok = bool(np.max(np.abs(ancilla_factor(circuit, orc) - expected)) < 1e-12)
    joint = simulate_fixed_circuit(circuit, orc, control, psi).reshape(8, 16)
    sv = np.linalg.svd(joint, compute_uv=False)
    product_ok = sv[1] <= 1e-8
    ok = len(fids) == 460 and worst >= 1 - 1e-10 and cross_err <= 1e-14 and anc_ok and product_ok
    report(6, ok, f"460 fidelities >= 1 - 1e-10 (worst 1 - {1 - worst:.2e}, scalar "
                  f"cross-check {cross_err:.1e}), ancilla factor "
                  f"U_A^2|0> x U_B|0> x U_C|0> x U_D|0>: {anc_ok}")


def test_criterion_07_process_matrix_unity(promise_sets, m4):
    _, sets = promise_sets
    process = build_effective_process(basis_state(2, 0), m4)
    worst = 1.0
    for orc in sets:
        val = success_probability(process, witness_operator([(orc, orc.claimed_y, 1.0)]))
        worst = min(worst, val)
    unity_ok = worst >= 1 - 1e-8
    # cross-formalism agreement on every fixture column and a random state
    rng = np.random.default_rng(7)
    cross_err = 0.0
    for fix in chart_fixture("table1") + chart_fixture("table2"):
        psi = random_state(2, rng)
        w_psi = build_effective_process(psi, m4)
        alg = run_hadamard_algorithm(fix, SIGMA_STAR, m4, psi)
        for y in range(4):
            val = success_probability(w_psi, witness_operator([(fix, y, 1.0)]))
            cross_err = max(cross_err, abs(val - alg.outcome_distribution[y]))
    ok = unity_ok and cross_err < 1e-8
    report(7, ok, f"Tr[G_k W'] = 1 within 1e-8 for all 460 (worst 1 - {1 - worst:.2e}); "
                  f"cross-formalism max deviation {cross_err:.2e}")


def test_criterion_08_attacks():
    counts = {"table1": [], "table2": [], "combined": []}
    correct = True
    for fix in chart_fixture("table1"):
        t = attack_table1(fix)
        correct &= t.guessed_y == fix.claimed_y
        counts["table1"].append(t.query_count)
    for fix in chart_fixture("table2"):
        t = attack_table2(fix)
        correct &= t.guessed_y == fix.claimed_y
        counts["table2"].append(t.query_count)
    for which in ("table1", "table2"):
        for fix in chart_fixture(which):
            t = attack_combined(fix)
            correct &= t.guessed_y == fix.claimed_y
            counts["combined"].append(t.query_count)
    budget_ok = (all(q == 2 for q in counts["table1"])
                 and all(q <= 4 for q in counts["table2"])
                 and all(q <= 5 for q in counts["combined"]))
    ok = correct and budget_ok
    report(8, ok, f"success 1 over all hidden columns; queries: "
                  f"table1 {max(counts['table1'])}, table2 <= {max(counts['table2'])}, "
                  f"combined <= {max(counts['combined'])}")


def test_criterion_09_equivalence_classes(promise_sets):
    _, sets = promise_sets
    strict = equivalence_classes(sets, phase_sensitive=True)
    verify_classification(strict, sets)  # hard assertion: every merge certified
    loose = equivalence_classes(sets, phase_sensitive=False)
    verify_classification(loose, sets)
    # The published count of 98 groups sets whose gates agree up to a common
    # basis change AND per-gate phases (the relation that matters when sets
    # enter only through their Choi projectors, as in averaged witnesses).
    # Demanding exact equality including phases refines it to 102 classes.
    ok = loose.n_classes == 98 and strict.n_classes == 102
    report(9, ok, f"phase-insensitive classes: {loose.n_classes} (target 98); "
                  f"strict phase-sensitive classes: {strict.n_classes}; "
                  f"every merge verified by an explicit conjugator")


def test_criterion_10_property_suite(m4):
    checks = []

    # uniform superposition from the control gate
    checks.append(bool(np.max(np.abs(m4.as_gate()[:, 0] - 0.5)) < 1e-12))

    # sign-and-fixed-target structure of the post-switch state
    fix = chart_fixture("table2")[1]
    psi = random_state(2, np.random.default_rng(10))
    joint = apply_n_switch(m4.as_gate()[:, 0], psi, fix, SIGMA_STAR).reshape(4, 2)
    expected = np.outer(m4.entries[:, fix.claimed_y] / 2.0,
                        all_products(fix, SIGMA_STAR)[0] @ psi)
    checks.append(bool(np.max(np.abs(joint - expected)) < 1e-9))

    # order-4 matrix self-inverse, exact integer orthogonality
    checks.append(bool(np.allclose(m4.as_gate() @ m4.as_gate(), np.eye(4), atol=1e-12)))
    checks.append(bool(np.array_equal(m4.entries @ m4.entries.T, 4 * np.eye(4, dtype=np.int64))))
    s8 = sylvester_hadamard(3)
    checks.append(bool(np.array_equal(s8.entries @ s8.entries.T, 8 * np.eye(8, dtype=np.int64))))

    # noise monotonicity in the dephasing knob
    values = [run_hadamard_algorithm(chart_fixture("table1")[1], SIGMA_STAR, m4,
                                     basis_state(2, 0),
                                     NoiseModel(gamma=g)).success_probability
              for g in np.linspace(0, 1, 11)]
    checks.append(all(a >= b - 1e-12 for a, b in zip(values, values[1:])))

    # deterministic seeded sampling
    res = run_hadamard_algorithm(chart_fixture("table1")[2], SIGMA_STAR, m4,
                                 basis_state(2, 0), NoiseModel(gamma=0.2))
    checks.append(bool(np.array_equal(sample_shots(res, 1000, 3),
                                      sample_shots(res, 1000, 3))))

    ok = all(checks)
    report(10, ok, f"{sum(checks)}/{len(checks)} property checks passed "
                   f"(state relations, self-inverse sign matrix, exact orthogonality, "
                   f"noise monotonicity, seeded sampling)")
