"""Cold start: importing the package loads none of its modules, each
command loads only the modules it runs, and a command loads OpenBLAS with
one thread.  Every check runs in a fresh interpreter, since this process has
long since imported everything."""
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import switchlab

ROOT = Path(__file__).resolve().parent.parent


def fresh_env(**extra: str) -> dict:
    """This environment with ``src`` on the path and no OPENBLAS_NUM_THREADS
    unless given in ``extra``."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return dict(env, PYTHONPATH=src + os.pathsep + path if path else src, **extra)


def fresh_json(code: str, expr: str, **env: str):
    """The JSON value of expr after a fresh interpreter runs code."""
    script = f"{code}\nimport json\nprint(json.dumps({expr}))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=fresh_env(**env), cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(code: str) -> set[str]:
    """The modules in ``sys.modules`` after a fresh interpreter runs code."""
    return set(fresh_json(f"{code}\nimport sys", "sorted(sys.modules)"))


def blas_after(code: str, **env: str) -> tuple[int | None, str | None]:
    """OpenBLAS's thread count (None without OpenBLAS), found as the benchmark
    finds it, and OPENBLAS_NUM_THREADS after a fresh interpreter runs code."""
    return tuple(fresh_json(
        f"{code}\nimport os, sys\nsys.path.insert(0, 'bench')\nfrom run import _blas",
        "[_blas()[1], os.environ.get('OPENBLAS_NUM_THREADS')]", **env))


def test_import_package_loads_no_submodule():
    loaded = loaded_after("import switchlab")
    assert not [m for m in loaded if m.startswith("switchlab.")]


@pytest.mark.parametrize("argv, unused", [
    # np.unique(x, return_index=True) in the BFS leaves numpy.ma unloaded
    (["scs", "ABCD", "BADC", "CBDA", "DACB"],
     {"switchlab.oracles", "switchlab.processes", "switchlab.fixed_order", "numpy.ma"}),
    (["enumerate"], {"switchlab.processes", "switchlab.fixed_order"}),
    (["run", "--table", "1", "--column", "2"],
     {"switchlab.oracles", "switchlab.processes", "switchlab.fixed_order",
      "switchlab.supersequences"}),
    (["witness"], {"switchlab.fixed_order"}),
    (["circuit", "--table", "2", "--column", "1"], {"switchlab.oracles", "switchlab.processes"}),
    (["attack", "--table", "auto", "--column", "3"],
     {"switchlab.oracles", "switchlab.supersequences", "switchlab.processes"}),
    (["witness", "--components", "thirty-uniform"],
     {"switchlab.oracles", "switchlab.fixed_order"}),
], ids=["scs", "enumerate", "run", "witness", "circuit", "attack", "witness-thirty"])
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


@pytest.fixture(scope="module")
def default_threads() -> int:
    threads, _ = blas_after("import numpy")
    if threads is None:
        pytest.skip("numpy does not load OpenBLAS")
    return threads


def test_cli_loads_openblas_with_one_thread(default_threads):
    assert blas_after("import switchlab.cli") == (1, None)


def test_cli_keeps_a_set_thread_count(default_threads):
    assert blas_after("import switchlab.cli", OPENBLAS_NUM_THREADS="2") == blas_after(
        "import numpy", OPENBLAS_NUM_THREADS="2")


def test_cli_leaves_an_earlier_numpy_as_it_is(default_threads):
    assert blas_after("import numpy\nimport switchlab.cli") == (default_threads, None)


def test_cold_command_cpu_time_stays_within_its_wall_time():
    # an idle OpenBLAS worker spinning after numpy loads would add ~130 ms of CPU
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "switchlab.cli", "run", "--table", "1",
                           "--column", "2"], capture_output=True, text=True,
                          env=fresh_env(), cwd=ROOT, timeout=120)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert proc.returncode == 0, proc.stderr
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    assert cpu <= 1.1 * wall + 0.02, (cpu, wall)
