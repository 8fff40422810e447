"""Cold start: importing the package loads none of its modules, and each
command loads only the modules it runs.  Every check runs in a fresh
interpreter, since this process has long since imported everything."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import switchlab

ROOT = Path(__file__).resolve().parent.parent


def loaded_after(code: str) -> set[str]:
    """The modules in ``sys.modules`` after a fresh interpreter runs code."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_package_loads_no_submodule():
    loaded = loaded_after("import switchlab")
    assert not [m for m in loaded if m.startswith("switchlab.")]


@pytest.mark.parametrize("argv, unused", [
    # np.unique(x, return_index=True) in the BFS leaves numpy.ma unloaded
    (["scs", "ABCD", "BADC", "CBDA", "DACB"],
     {"switchlab.oracles", "switchlab.processes", "switchlab.fixed_order", "numpy.ma"}),
    (["enumerate"], {"switchlab.processes", "switchlab.fixed_order"}),
    (["run", "--table", "1", "--column", "2"],
     {"switchlab.processes", "switchlab.fixed_order", "switchlab.supersequences"}),
    (["witness"], {"switchlab.fixed_order"}),
], ids=["scs", "enumerate", "run", "witness"])
def test_command_loads_only_its_modules(argv, unused):
    loaded = loaded_after(
        "import contextlib, io\nfrom switchlab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0")
    assert "switchlab.cli" in loaded
    assert not loaded & unused


def test_lazy_names_are_listed_and_unknown_names_fail():
    assert set(switchlab.__all__) <= set(dir(switchlab))
    with pytest.raises(AttributeError, match="'switchlab' has no attribute 'no_such_name'"):
        switchlab.no_such_name
