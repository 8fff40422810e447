"""switchlab benchmark runner.

One workload per process, one client, closed loop:

    python3 bench/run.py --workload promise-sweep --seed 1 --seconds 30 --trace 0

The process warms up by calling each public entry point of the pass once,
untimed, and then runs passes until the next one would end after
``--seconds``.  The warm-up keeps first-call costs (allocator growth, BLAS
and LAPACK start-up: the first 1024-dimensional effective process costs
several times a later one) out of ``pass_s``.  Cold cost is what the
cli-session workload measures, since every command there is a new process.
Before the first pass and after each untraced one, it times one set-up: a
fresh interpreter importing switchlab and generating the seeded inputs (on
cli-session, importing ``switchlab.cli``).  ``peak_rss_mb`` is read after
warm-up and the first pass.

The host is shared, and its neighbours change its speed: a fixed
pure-Python loop timed for 90 s on a 2-vCPU VM ran at 1.0x to 1.6x its
fastest time in phases of seconds to minutes.  To measure the program
rather than its neighbours, each pass is a fixed sequence of blocks (see
``workloads.py``), and after every block the runner times a probe: a fixed
pure-Python loop.  Where the
runner's thread does the work, the probe runs there; where child processes
do it (the CLI commands, and every set-up), the probe runs once on each CPU
and the times are averaged, since the kernel may place a child on any of
them.  The probe reads its reference time, ``PROBE_REF_S``, when the host
runs at the speed it had when the benchmark was defined, and more when the
host is slower.  Every such time reported is the measured wall or CPU time
scaled by reference over measured probe time (the mean over the probes of
that pass or set-up): the time at reference host speed.  process-witness,
whose hot path is dense LAPACK on both cores, does not follow the probe
closely enough to be scaled; its pass times are reported as measured.
``setup_s``, ``pass_s`` and ``cpu_s`` are medians over the run's set-ups and
passes.  The report line also gives the unscaled medians and the mean host
speed.  On that VM, over ten 30 s runs with different seeds, the unscaled
median pass time of query-cost, promise-sweep and cli-session spread by 7
to 23 % (interquartile range over median), the scaled one by 3 to 8 %.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics,
measured with tracing off.  With ``--trace 1`` untraced and traced passes
alternate; the last line holds the per-layer metrics of the traced passes
(medians over passes) and the tracing overhead, and the spans are written to
``.bench_out/``.  The line before the last is a report with every metric
computed, ``failed_ratio``, the pass counts and the provenance of the run.

    python3 bench/run.py --workload all --seconds 30   # table of every workload
    python3 bench/run.py --smoke                       # one short untraced and traced pass each, checked
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "switchlab").is_dir():
    sys.exit(f"no switchlab sources under {ROOT / 'src'}: run from a checkout of the repository")
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np

from spans import NULL_TRACER, Tracer
from workloads import CLI_COMMANDS, WORKLOADS, Tally

OUT_DIR = ROOT / ".bench_out"

END_TO_END = {"setup_s": "s", "pass_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Spans whose summed self time per pass is reported as <span>.busy_ms.
BUSY = (
    "switch.decode", "switch.decode_noisy", "switch.sample_shots",
    "oracles.enumerate", "oracles.check_promise", "oracles.classes_strict",
    "oracles.classes_loose", "oracles.verify_classification",
    "supersequences.census", "supersequences.scs",
    "fixed_order.build_circuit", "fixed_order.fidelity", "fixed_order.attack",
    "processes.effective_process", "processes.success_probability",
    "processes.witness_matrix", "processes.definite_order", "processes.ccgo_verify",
)
# Spans whose number per pass is reported as <span>.calls.
CALLS = (
    "switch.decode", "switch.decode_noisy", "oracles.check_promise",
    "supersequences.scs", "fixed_order.fidelity", "processes.effective_process",
    "processes.success_probability", "processes.definite_order",
)
# Work counters added by the workloads, reported per pass.
COUNTS = (
    "oracles.enumerate.candidates", "supersequences.census.quartets",
    "supersequences.scs.length_sum", "fixed_order.attack.queries",
    "processes.ccgo_verify.checks",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"cli.import_ms": "ms", "cli.overhead_ms": "ms"}
    for name, _ in CLI_COMMANDS:
        units[f"cli.{name}.wall_ms"] = "ms"
        units[f"cli.{name}.handler_ms"] = "ms"
    for span in BUSY:
        units[f"{span}.busy_ms"] = "ms"
        if span in CALLS:
            units[f"{span}.calls"] = "count"
    units.update({name: "count" for name in COUNTS})
    units["oracles.enumerate.hit_ratio"] = "1"
    units["oracles.classes.merges"] = "1"
    units["bench.self_ms"] = "ms"
    units["bench.trace_overhead_pct"] = "%"
    return units


def layer_values(tracer: Tracer, pass_id: int) -> dict[str, float]:
    """Per-layer values of one traced pass (no cli.import_ms, no overhead)."""
    self_ms = {k: 1000.0 * v for k, v in tracer.self_times(pass_id).items()}
    calls = tracer.calls(pass_id)
    counts = tracer.counts[pass_id]
    out: dict[str, float] = {}
    wall = handler = 0.0
    for name, _ in CLI_COMMANDS:
        out[f"cli.{name}.wall_ms"] = self_ms.get(f"cli.{name}", 0.0)
        out[f"cli.{name}.handler_ms"] = counts.get(f"cli.{name}.handler_ms", 0.0)
        wall += out[f"cli.{name}.wall_ms"]
        handler += out[f"cli.{name}.handler_ms"]
    out["cli.overhead_ms"] = wall - handler
    for span in BUSY:
        out[f"{span}.busy_ms"] = self_ms.get(span, 0.0)
    for span in CALLS:
        out[f"{span}.calls"] = calls.get(span, 0)
    for name in COUNTS:
        out[name] = counts.get(name, 0.0)
    candidates = counts.get("oracles.enumerate.candidates", 0.0)
    out["oracles.enumerate.hit_ratio"] = (
        counts.get("oracles.enumerate.hits", 0.0) / candidates if candidates else 0.0)
    classified = counts.get("oracles.classes.sets", 0.0)
    out["oracles.classes.merges"] = (
        counts.get("oracles.classes.merges", 0.0) / classified if classified else 0.0)
    out["bench.self_ms"] = self_ms.get("bench.pass", 0.0)
    return out


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def setup_command(workload: str, seed: int) -> list[str]:
    if workload == "cli-session":
        return [sys.executable, "-c", "import switchlab.cli"]
    return [sys.executable, "-c",
            f"import workloads; workloads.WORKLOADS[{workload!r}]({seed})"]


def time_setup(workload: str, seed: int) -> float:
    """Wall seconds of a fresh interpreter doing the workload's set-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    start = time.perf_counter()
    # No timeout: with one, the wait polls in sleeps of up to 50 ms, which
    # would round the measured time up by as much.
    subprocess.run(setup_command(workload, seed), env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


PROBE_LOOP = 30_000
# Median time of the probe loop on the host where the benchmark was defined
# (Intel Xeon, 2 vCPUs): the speed that the reported times are scaled to.
PROBE_REF_S = 2.0e-3


class Probe:
    """Times a fixed pure-Python loop: on this thread's CPU (``"thread"``),
    or once on each CPU this process may use, averaged (``"cpus"``: for work
    in child processes, which the kernel may place on any of them)."""

    ref = PROBE_REF_S

    def __init__(self, where: str):
        assert where in ("thread", "cpus"), where
        self.where = where

    def __call__(self) -> float:
        if self.where == "thread":
            return self._once()
        home = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in sorted(home):
                os.sched_setaffinity(0, {cpu})
                times.append(self._once())
        finally:
            os.sched_setaffinity(0, home)
        return statistics.fmean(times)

    @staticmethod
    def _once() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i
        return time.perf_counter() - start


def timed_setup(workload: str, seed: int, probe: Probe) -> tuple[float, float]:
    """(wall seconds, host speed) of one set-up, the speed being the probe's
    reference over its mean time just before and just after."""
    before = probe()
    wall = time_setup(workload, seed)
    return wall, 2.0 * probe.ref / (before + probe())


def timed_pass(workload, tracer, tally: Tally, probe: Probe | None) -> tuple[float, float, float] | None:
    """(wall seconds, CPU seconds, host speed) of one pass, the speed being
    the probe's reference over its mean time after each block, or 1 without
    a probe; None if the pass raised, which fails it.  Probe time counts in
    neither time."""
    wall = cpu = probed = 0.0
    n = 0

    def block_done():
        nonlocal wall, cpu, probed, n
        wall += time.perf_counter() - t0
        cpu += _cpu_seconds() - cpu0
        if probe is not None:
            with tracer.span("bench.probe"):
                probed += probe()
        n += 1

    with tracer.span("bench.pass"):
        t0, cpu0 = time.perf_counter(), _cpu_seconds()
        try:
            for _ in workload.run_pass(tracer, tally):
                block_done()
                t0, cpu0 = time.perf_counter(), _cpu_seconds()
        except Exception:  # the run goes on and reports the failure
            tally.fail(traceback.format_exc(limit=4))
            return None
        block_done()
    return wall, cpu, (n * probe.ref / probed if probe is not None else 1.0)


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten passes beyond it."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": int(100 * (n - 10) / n), "value": sorted(values)[n - 11]}


def peak_rss_mb(workload: str) -> float:
    """Peak resident set so far: this process, or its largest child on
    cli-session, whose work runs in the children."""
    who = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> tuple[str | None, int | None]:
    """OpenBLAS version and thread count of the library numpy loaded."""
    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        version = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return version, int(fn())
    return version, None


def provenance(seed: int, passes: dict) -> dict:
    blas_version, blas_threads = _blas()
    return {
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "seed": seed,
        "passes": passes,
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name](seed)
    tally = Tally()
    tracer = Tracer() if trace else None
    probe = Probe(workload.probe) if workload.probe else None
    setup_probe = Probe("cpus")

    start = time.perf_counter()
    workload.warm_up(tally)
    warmup_s = time.perf_counter() - start

    setups = [timed_setup(name, seed, setup_probe)]   # (wall, host speed)
    untraced, traced = [], []     # (wall, cpu, host speed) of completed passes
    last = []                     # wall of every pass, to pace the run
    deadline = time.perf_counter() + seconds
    while True:
        tracing = trace and len(traced) < len(untraced)
        start = time.perf_counter()
        if tracing:
            tracer.pass_id = len(traced)
            timed = timed_pass(workload, tracer, tally, probe)
        else:
            timed = timed_pass(workload, NULL_TRACER, tally, probe)
        last.append(time.perf_counter() - start)
        if timed is None:
            break   # a failed pass fails the run; the next would fail alike
        (traced if tracing else untraced).append(timed)
        if not tracing:
            if len(untraced) == 1:
                # Read after the first pass so that the pass count, which
                # varies with machine speed, does not move the figure.
                rss_mb = peak_rss_mb(name)
            setups.append(timed_setup(name, seed, setup_probe))
        enough = not trace or len(traced) == len(untraced)
        cycle = statistics.median(last) + statistics.median(w for w, _ in setups)
        if enough and time.perf_counter() + cycle > deadline:
            break

    if not untraced:
        rss_mb = peak_rss_mb(name)
    scaled_setup = [w * v for w, v in setups]
    scaled_wall = [w * v for w, _, v in untraced]
    values = {
        "setup_s": statistics.median(scaled_setup),
        "pass_s": statistics.median(scaled_wall) if untraced else 0.0,
        "cpu_s": statistics.median(c * v for _, c, v in untraced) if untraced else 0.0,
        "peak_rss_mb": rss_mb,
    }
    end_to_end = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    passes = {"setup_s": len(setups), "pass_s": len(untraced), "cpu_s": len(untraced),
              "peak_rss_mb": 1}
    report = {
        "workload": name,
        "trace": int(trace),
        "end_to_end": end_to_end,
        "failed_ratio": {"value": tally.failed / max(tally.attempted, 1), "unit": "1"},
        "pass_s_tail": tail(scaled_wall),
        "unscaled_medians": {
            "setup_s": statistics.median(w for w, _ in setups),
            "pass_s": statistics.median(w for w, _, _ in untraced) if untraced else 0.0,
            "cpu_s": statistics.median(c for _, c, _ in untraced) if untraced else 0.0},
        "host_speed": {"setup": statistics.fmean(v for _, v in setups),
                       "pass": statistics.fmean(v for _, _, v in untraced)
                       if probe is not None and untraced else None},
        "probe": {"where": workload.probe, "ref_s": PROBE_REF_S},
        "warmup_s": warmup_s,
        "failures": tally.failures,
    }

    metrics = end_to_end
    if trace:
        units = per_layer_units()
        per_pass = [layer_values(tracer, i) for i in range(len(traced))]
        layer = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]} if per_pass else {}
        layer["cli.import_ms"] = 1000.0 * values["setup_s"] if name == "cli-session" else 0.0
        traced_s = statistics.median(w * v for w, _, v in traced) if traced else 0.0
        pass_s = values["pass_s"]
        layer["bench.trace_overhead_pct"] = 100.0 * (traced_s - pass_s) / pass_s if pass_s else 0.0
        metrics = {k: {"value": layer.get(k, 0.0), "unit": u} for k, u in units.items()}
        report["per_layer"] = metrics
        passes["per_layer"] = len(traced)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{name}-seed{seed}.json")
    report["provenance"] = provenance(seed, passes)

    print(json.dumps({"report": report}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# Every workload: table and smoke check
# ---------------------------------------------------------------------------

def run_all(seed: int, seconds: float, trace: bool) -> list[dict]:
    """Run each workload in its own process; return their report lines."""
    reports = []
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} exited {proc.returncode}:\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        reports.append(dict(json.loads(lines[-2])["report"], result=json.loads(lines[-1])))
    return reports


def print_table(reports: list[dict]) -> None:
    for r in reports:
        rows = dict(r["end_to_end"], failed_ratio=r["failed_ratio"], **r.get("per_layer", {}))
        for metric, m in rows.items():
            print(f"{r['workload']:<16} {metric:<40} {m['value']:>14.6g} {m['unit']}")


def smoke(seed: int) -> int:
    """One short untraced and one traced pass per workload: every metric
    named in BENCHMARK.json is emitted and no checked operation fails."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    reports = run_all(seed, 0, trace=True)
    for r in reports:
        emitted = set(r["end_to_end"]) | set(r["result"]["metrics"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            if m["name"] not in emitted:
                problems.append(f"{r['workload']}: {m['name']} not emitted")
        if r["failed_ratio"]["value"] != 0 or not r["result"]["correct"]:
            problems.append(f"{r['workload']}: failures {r['failures']}")
    print_table(reports)
    for p in problems:
        print(f"SMOKE FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check one untraced and one traced pass of every workload")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("give --workload or --smoke")
    if args.workload == "all":
        print_table(run_all(args.seed, args.seconds, bool(args.trace)))
        return 0
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
