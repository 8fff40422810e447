"""Each demo script runs to completion without numpy warnings, and every name
the package exports resolves."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_public_names_resolve():
    import switchlab
    names = switchlab.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(switchlab, n)]
    assert not missing
    namespace: dict = {}
    exec("from switchlab import *", namespace)
    assert set(names) <= set(namespace)
