"""The four benchmark workloads: seeded inputs and one pass of each.

Each workload is a closed loop with one client: the next call into switchlab
starts when the previous one has returned.  Constructing a workload object
is its set-up (imports plus seeded input generation); ``run_pass`` is the job
a user waits for.  Every call into a switchlab module sits in a span named
``<module>.<operation>``, and every output is checked against the paper's
numbers through ``Tally.check``.

``run_pass`` is a generator: each ``yield`` closes a block of the pass, the
same work in every pass of a run.  A block is a batch of short calls of
10 to 50 ms, or one long call (a CLI command, the census, a classification,
the CCGO verifier).  After each block the runner times its host-speed probe
(see ``run.py``), so that the probe follows the host's speed through the
pass.  Blocks end between spans.  ``probe`` says where the probe runs:
on the runner's thread where that thread does the work (``"thread"``), on
every CPU where child processes do it (``"cpus"``), or not at all
(``None``) where the pass's speed does not follow the probe's.

Only public entry points are called, and none with a thread count.  The
work counts of a pass (calls, candidates, quartets, checks, merges) are the
same for every seed; the seed only changes the random targets, oracles,
ordering sets, weights and the order of the CLI session.
"""
from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np
from spans import NULL_TRACER

from switchlab import (SIGMA_STAR, NamedGate, NoiseModel, OracleSet,
                       PermutationSet, attack_combined, basis_state,
                       build_effective_process, build_fixed_circuit,
                       chart_fixture, check_promise, definite_order_process,
                       enumerate_promise_sets, equivalence_classes,
                       gate_set_G, hadamard_m4, is_supersequence,
                       quartet_census, random_state, random_unitary,
                       run_hadamard_algorithm, sample_shots, scs,
                       success_probability, switch_equivalence_fidelity,
                       uniform_witness, verify_ccgo_decomposition,
                       verify_classification, witness_operator)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_CLI = Path(__file__).resolve().parent / "golden_cli.json"

# Headline numbers of the paper, checked inside the passes.
PROMISE_SETS = 460
PER_COLUMN = (316, 60, 42, 42)
CANDIDATES = 10 ** 4
QUARTETS = 1771
CENSUS = {6: 37, 7: 946, 8: 779, 9: 9}
STAR_LENGTH = 9
QUERY_GAP = 5
ATTACK_QUERIES = 5          # at most, per table column
CLASSES_STRICT = 102
CLASSES_LOOSE = 98
CCGO_CHECKS = 88
TRACE_2N = 16.0             # effective processes, definite-order combs, witnesses

UNIT_SUCCESS_TOL = 1e-9
FIDELITY_TOL = 1e-10
WITNESS_TOL = 1e-8


class Tally:
    """Checked operations of a run: attempted, failed, first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def _haar_oracle(rng: np.random.Generator) -> OracleSet:
    return OracleSet(tuple(NamedGate(f"U{i}", random_unitary(2, rng)) for i in range(4)))


class PromiseSweep:
    """Oracle side: enumeration, promise checks, ideal and noisy decoding,
    and equivalence classification of the sets plus conjugated copies of a
    seeded tenth of them."""

    name = "promise-sweep"
    probe = "thread"
    RANDOM_TARGETS = 10
    HAAR_ORACLES = 64
    NOISY_SETS = 24
    NOISY_TARGETS = 16
    GAMMAS = (0.0, 0.25, 0.5, 0.75, 1.0)
    EPSILON = 0.05
    SHOTS = 2000
    CONJUGATED_SETS = 46        # seeded tenth of the sets, classified with the originals
    DECODE_BLOCK = 10           # promise sets per timed block of ideal decodes

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.gates = gate_set_G()
        self.m4 = hadamard_m4()
        self.targets = [basis_state(2, 0)] + [random_state(2, rng)
                                              for _ in range(self.RANDOM_TARGETS)]
        self.haar = [_haar_oracle(rng) for _ in range(self.HAAR_ORACLES)]
        self.noisy_sets = sorted(int(i) for i in
                                 rng.choice(PROMISE_SETS, self.NOISY_SETS, replace=False))
        self.noisy_targets = [random_state(2, rng) for _ in range(self.NOISY_TARGETS)]
        self.shot_seed = int(rng.integers(2 ** 31))
        self.conjugator = random_unitary(2, rng)
        self.conjugated_sets = sorted(int(i) for i in
                                      rng.choice(PROMISE_SETS, self.CONJUGATED_SETS,
                                                 replace=False))

    def warm_up(self, tally) -> None:
        _, sets = enumerate_promise_sets(self.gates, SIGMA_STAR, self.m4)
        check_promise(sets[0], SIGMA_STAR, self.m4)
        run_hadamard_algorithm(sets[0], SIGMA_STAR, self.m4, self.targets[0])
        run_hadamard_algorithm(sets[0], SIGMA_STAR, self.m4, self.targets[0],
                               NoiseModel(self.GAMMAS[1], self.EPSILON))
        equivalence_classes(sets[:8], phase_sensitive=False)

    def run_pass(self, trace, tally) -> Iterator[None]:
        m4, gates = self.m4, self.gates
        with trace.span("oracles.enumerate"):
            census, sets = enumerate_promise_sets(gates, SIGMA_STAR, m4)
        trace.add("oracles.enumerate.candidates", len(gates) ** SIGMA_STAR.N)
        trace.add("oracles.enumerate.hits", census.total)
        tally.check(len(gates) ** SIGMA_STAR.N == CANDIDATES and census.total == PROMISE_SETS
                    and census.per_column == PER_COLUMN and len(sets) == PROMISE_SETS,
                    f"enumeration census {census}")
        yield

        for s in sets:
            with trace.span("oracles.check_promise"):
                verdict = check_promise(s, SIGMA_STAR, m4)
            tally.check(verdict.satisfied and verdict.y == s.claimed_y, "promise set accepted")
        for o in self.haar:
            with trace.span("oracles.check_promise"):
                verdict = check_promise(o, SIGMA_STAR, m4)
            tally.check(not verdict.satisfied, "Haar-random oracle rejected")
        yield

        for k, s in enumerate(sets, 1):
            for t in self.targets:
                with trace.span("switch.decode"):
                    result = run_hadamard_algorithm(s, SIGMA_STAR, m4, t)
                tally.check(result.success_probability >= 1 - UNIT_SUCCESS_TOL,
                            "noiseless unit success")
            if k % self.DECODE_BLOCK == 0:
                yield

        for k, i in enumerate(self.noisy_sets):
            s = sets[i]
            for t in self.noisy_targets:
                previous = 1.0
                for gamma in self.GAMMAS:
                    with trace.span("switch.decode_noisy"):
                        result = run_hadamard_algorithm(
                            s, SIGMA_STAR, m4, t, NoiseModel(gamma, self.EPSILON))
                    p = result.success_probability
                    tally.check(p <= previous + 1e-12, "success does not rise with dephasing")
                    previous = p
            seed = self.shot_seed + k
            with trace.span("switch.sample_shots"):
                first = sample_shots(result, self.SHOTS, seed)
            with trace.span("switch.sample_shots"):
                again = sample_shots(result, self.SHOTS, seed)
            tally.check(int(first.sum()) == self.SHOTS and np.array_equal(first, again),
                        "seeded shots are reproducible")
            yield

        both = sets + [sets[i].conjugated(self.conjugator) for i in self.conjugated_sets]
        merges = 0
        for phase_sensitive, span, expected in ((True, "oracles.classes_strict", CLASSES_STRICT),
                                                (False, "oracles.classes_loose", CLASSES_LOOSE)):
            with trace.span(span):
                classes = equivalence_classes(both, phase_sensitive=phase_sensitive)
            yield
            with trace.span("oracles.verify_classification"):
                verify_classification(classes, both)
            tally.check(classes.n_classes == expected,
                        f"{span}: {classes.n_classes} classes, expected {expected}")
            merges += len(classes.conjugators)
            yield
        trace.add("oracles.classes.merges", merges)
        trace.add("oracles.classes.sets", 2 * len(both))


def _random_orderings(rng: np.random.Generator, n: int, p: int) -> PermutationSet:
    """The identity plus p - 1 distinct random orderings of n labels."""
    rows = [tuple(range(n))]
    while len(rows) < p:
        row = tuple(int(j) for j in rng.permutation(n))
        if row not in rows:
            rows.append(row)
    return PermutationSet(rows)


class QueryCost:
    """Query-complexity side: the quartet census, certified supersequences of
    random ordering sets, circuit equivalence and the table attacks."""

    name = "query-cost"
    probe = "thread"
    # (labels N, orderings P, instances): many mid-size sets and few large
    # ones, so the seed moves the summed BFS cost little.
    SCS_MIX = ((5, 5, 40), (6, 5, 24), (5, 6, 16), (5, 7, 8), (5, 8, 2), (6, 6, 2))
    FIDELITY_BLOCK = 46         # promise sets per timed block of fidelities

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.m4 = hadamard_m4()
        _, self.sets = enumerate_promise_sets(gate_set_G(), SIGMA_STAR, self.m4)
        self.target = random_state(2, rng)
        self.orderings = [_random_orderings(rng, n, p)
                          for n, p, count in self.SCS_MIX for _ in range(count)]
        self.fixtures = chart_fixture("table1") + chart_fixture("table2")

    def warm_up(self, tally) -> None:
        star = scs(SIGMA_STAR)
        switch_equivalence_fidelity(build_fixed_circuit(star, SIGMA_STAR), self.sets[0],
                                    self.m4.as_gate()[:, 0], self.target)

    def run_pass(self, trace, tally) -> Iterator[None]:
        with trace.span("supersequences.census"):
            census = quartet_census()
        trace.add("supersequences.census.quartets", census.total)
        tally.check(census.total == QUARTETS and census.histogram == CENSUS,
                    f"quartet census {census.histogram}")
        yield

        with trace.span("supersequences.scs"):
            star = scs(SIGMA_STAR)
        with trace.span("fixed_order.build_circuit"):
            circuit = build_fixed_circuit(star, SIGMA_STAR)
        tally.check(star.length == STAR_LENGTH
                    and circuit.query_count - SIGMA_STAR.N == QUERY_GAP,
                    f"sigma* supersequence {star.sequence}")
        trace.add("supersequences.scs.length_sum", star.length)
        yield

        for perms in self.orderings:
            with trace.span("supersequences.scs"):
                result = scs(perms)
            with trace.span("fixed_order.build_circuit"):
                built = build_fixed_circuit(result, perms)
            words = perms.to_strings()
            tally.check(perms.N <= result.length <= perms.N * perms.P
                        and all(is_supersequence(result.sequence, w)[0] for w in words)
                        and built.query_count == result.length,
                        f"supersequence of {words}")
            trace.add("supersequences.scs.length_sum", result.length)
            yield

        control = self.m4.as_gate()[:, 0]
        for k, s in enumerate(self.sets, 1):
            with trace.span("fixed_order.fidelity"):
                f = switch_equivalence_fidelity(circuit, s, control, self.target)
            tally.check(f >= 1 - FIDELITY_TOL, "circuit reproduces the switch")
            if k % self.FIDELITY_BLOCK == 0:
                yield

        for fixture in self.fixtures:
            with trace.span("fixed_order.attack"):
                transcript = attack_combined(fixture)
            trace.add("fixed_order.attack.queries", transcript.query_count)
            tally.check(transcript.guessed_y == fixture.claimed_y
                        and transcript.query_count <= ATTACK_QUERIES,
                        f"attack on column {fixture.claimed_y}")


class ProcessWitness:
    """Process-matrix side: effective processes, witness values against the
    switch, the dense witness and the classical-control verifier."""

    name = "process-witness"
    # Dense LAPACK on both cores: in three 3-minute runs its pass time
    # moved with the probe's only as its 0.4th to 0.6th power, so scaling
    # by the probe would add the probe's own noise.
    probe = None
    RANDOM_TARGETS = 2
    RANDOM_ORACLES = 8
    COMBS_PER_PASS = 6          # definite-order combs rebuilt per pass, in rotation
    WITNESS_BLOCK = 46          # promise sets per timed block of witness values

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.m4 = hadamard_m4()
        _, self.sets = enumerate_promise_sets(gate_set_G(), SIGMA_STAR, self.m4)
        self.thirty = uniform_witness(chart_fixture("thirty"))
        self.targets = [basis_state(2, 0)] + [random_state(2, rng)
                                              for _ in range(self.RANDOM_TARGETS)]
        self.oracles = [_haar_oracle(rng) for _ in range(self.RANDOM_ORACLES)]
        self.orders = ["".join(o) for o in itertools.permutations("ABCD")]
        self.weights = rng.dirichlet(np.ones(len(self.orders)))
        self.answers = [int(y) for y in rng.integers(0, 4, size=len(self.orders))]
        self.comb_target = random_state(2, rng)
        self.parts: dict[tuple, np.ndarray] = {}
        self.next_comb = 0

    def _comb(self, i: int, trace, tally) -> None:
        """Build the definite-order comb of ordering ``i`` into ``parts``."""
        order, y = self.orders[i], self.answers[i]
        with trace.span("processes.definite_order"):
            comb = definite_order_process(order, self.comb_target, y)
        tally.check(abs(comb.trace - TRACE_2N) <= 1e-9, f"comb {order} trace")
        self.parts[tuple(order)] = self.weights[i] * comb.matrix

    def warm_up(self, tally) -> None:
        """First calls, plus all 24 weighted combs; a pass rebuilds
        ``COMBS_PER_PASS`` of them and verifies the whole decomposition."""
        w = build_effective_process(self.targets[0], self.m4)
        success_probability(w, self.thirty)
        for i in range(len(self.orders)):
            self._comb(i, NULL_TRACER, tally)

    def run_pass(self, trace, tally) -> Iterator[None]:
        m4 = self.m4
        processes = []
        for t in self.targets:
            with trace.span("processes.effective_process"):
                w = build_effective_process(t, m4)
            tally.check(abs(w.trace - TRACE_2N) <= 1e-9, "effective process trace")
            processes.append(w)
            yield

        w0 = processes[0]
        for k, s in enumerate(self.sets, 1):
            g = witness_operator([(s, s.claimed_y, 1.0)])
            with trace.span("processes.success_probability"):
                value = success_probability(w0, g)
            tally.check(abs(value - 1.0) <= WITNESS_TOL, "single-component witness unity")
            if k % self.WITNESS_BLOCK == 0:
                yield
        with trace.span("processes.success_probability"):
            value = success_probability(w0, self.thirty)
        tally.check(abs(value - 1.0) <= WITNESS_TOL, "thirty-uniform witness unity")

        for t, w in zip(self.targets[1:], processes[1:]):
            for o in self.oracles:
                with trace.span("switch.decode"):
                    dist = run_hadamard_algorithm(o, SIGMA_STAR, m4, t).outcome_distribution
                for y in range(m4.P):
                    g = witness_operator([(o, y, 1.0)])
                    with trace.span("processes.success_probability"):
                        value = success_probability(w, g)
                    tally.check(abs(value - dist[y]) <= WITNESS_TOL,
                                "witness value matches the switch distribution")
            yield

        with trace.span("processes.witness_matrix"):
            dense = self.thirty.matrix()
        # Tr[G W] straight from the dense matrices, independent of the
        # blockwise evaluation in success_probability.
        tally.check(abs(np.trace(dense).real - TRACE_2N) <= 1e-9
                    and abs(np.sum(dense * w0.matrix.T).real - 1.0) <= WITNESS_TOL,
                    "dense thirty-uniform witness")
        del dense   # 16 MiB that need not stay alive while the combs are built
        yield

        for _ in range(self.COMBS_PER_PASS):
            self._comb(self.next_comb, trace, tally)
            self.next_comb = (self.next_comb + 1) % len(self.orders)
            yield
        with trace.span("processes.ccgo_verify"):
            report = verify_ccgo_decomposition(self.parts)
        trace.add("processes.ccgo_verify.checks", len(report.checks))
        tally.check(report.passed and report.normalized
                    and len(report.checks) == CCGO_CHECKS
                    and abs(report.trace - TRACE_2N) <= 1e-8,
                    f"CCGO decomposition: {len(report.failures())} failed checks")


# (name, arguments) of the README reproduction session.
CLI_COMMANDS = (
    ("scs", ("scs", "ABCD", "BADC", "CBDA", "DACB")),
    ("scs-census", ("scs", "--census")),
    ("enumerate", ("enumerate",)),
    ("enumerate-classes", ("enumerate", "--classes")),
    ("run", ("run", "--table", "1", "--column", "2")),
    ("run-noisy", ("run", "--table", "1", "--column", "1", "--gamma", "0.3",
                   "--shots", "6000", "--seed", "7")),
    ("circuit", ("circuit", "--table", "2", "--column", "1")),
    ("witness-thirty", ("witness", "--components", "thirty-uniform")),
    ("witness-table1", ("witness", "--components", "table1-uniform")),
    ("attack", ("attack", "--table", "auto", "--column", "3")),
)


def cli_env() -> dict:
    """Environment for ``python -m switchlab.cli``: the package is run from
    ``src`` because it need not be installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_cli(argv, env) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "switchlab.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)


def results_block(stdout: str) -> str:
    """The envelope's ``results`` serialized as the CLI serializes it."""
    return json.dumps(json.loads(stdout)["results"], sort_keys=True)


class CliSession:
    """The README reproduction session, one cold subprocess per command,
    in an order drawn from the seed."""

    name = "cli-session"
    probe = "cpus"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.commands = [CLI_COMMANDS[i] for i in rng.permutation(len(CLI_COMMANDS))]
        self.golden = json.loads(GOLDEN_CLI.read_text(encoding="utf-8"))
        self.env = cli_env()

    def warm_up(self, tally) -> None:
        """None: every command starts cold, which is what this workload measures."""

    def run_pass(self, trace, tally) -> Iterator[None]:
        for name, argv in self.commands:
            with trace.span(f"cli.{name}"):
                proc = run_cli(argv, self.env)
            ok = proc.returncode == 0 and "RuntimeWarning" not in proc.stderr
            what = f"cli {name}: exit {proc.returncode}, stderr {proc.stderr[-200:]!r}"
            if ok:
                trace.add(f"cli.{name}.handler_ms", json.loads(proc.stdout)["elapsed_ms"])
                ok = results_block(proc.stdout) == self.golden[name]
                what = f"cli {name}: results differ from {GOLDEN_CLI.name}"
            tally.check(ok, what)
            yield


WORKLOADS = {w.name: w for w in (CliSession, PromiseSweep, QueryCost, ProcessWitness)}
