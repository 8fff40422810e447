"""The tolerance table in ``linalg`` is the only home of a threshold: no other
small float literal appears in the package, and no function takes a
tolerance argument."""
import ast
import dataclasses
import inspect
from pathlib import Path

import switchlab
from switchlab import linalg

SRC = Path(linalg.__file__).resolve().parent
SMALL = 1e-3   # every tolerance in the package is far below this

TABLE = {"ATOL": 1e-10, "PROMISE_TOL": 1e-9, "CONJUGATOR_TOL": 1e-8, "KEY_DECIMALS": 8,
         "DEGENERATE": 1e-6, "PROBABILITY_TOL": 1e-9, "WITNESS_RANGE_TOL": 1e-8,
         "CCGO_TOL": 1e-9, "CCGO_TRACE_RTOL": 1e-8, "EXACT_TEST_TOL": 1e-9,
         "FIDELITY_FLOOR": 1e-10}


def _table_nodes(tree: ast.Module) -> list[ast.Assign]:
    return [node for node in tree.body if isinstance(node, ast.Assign)
            and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in TABLE]


def test_table_entries_keep_their_values_and_reasons():
    assert {name: getattr(linalg, name) for name in TABLE} == TABLE
    source = (SRC / "linalg.py").read_text()
    lines = source.splitlines()
    nodes = _table_nodes(ast.parse(source))
    assert sorted(n.targets[0].id for n in nodes) == sorted(TABLE)
    for node in nodes:
        line = lines[node.lineno - 1]
        assert "#" in line and line.split("#", 1)[1].strip(), f"{line!r} gives no reason"


def test_no_tolerance_literal_outside_the_table():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        table = {id(c) for node in _table_nodes(tree) for c in ast.walk(node)} \
            if path.name == "linalg.py" else set()
        stray += [f"{path.name}:{node.lineno} {node.value}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)
                  and 0 < abs(node.value) < SMALL and id(node) not in table]
    assert not stray, stray


def test_no_function_takes_a_tolerance():
    knobs = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
                knobs += [f"{path.name}:{node.lineno} {name}"
                          for name in sorted(names & {"tol", "tolerance"})]
    # dataclass fields become constructor parameters without a def
    for name in switchlab.__all__:
        obj = getattr(switchlab, name)
        if inspect.isfunction(obj):
            params = set(inspect.signature(obj).parameters)
        elif dataclasses.is_dataclass(obj):
            params = {f.name for f in dataclasses.fields(obj)}
        else:
            continue
        knobs += [f"{name}({p})" for p in sorted(params & {"tol", "tolerance"})]
    assert not knobs, knobs
