"""Smoke test of the benchmark: every workload runs one untraced and one
traced pass, emits every metric named in BENCHMARK.json, and fails no
checked operation."""
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_every_workload_emits_every_metric_without_failures():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                          text=True, cwd=RUN.parent.parent, timeout=900)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
