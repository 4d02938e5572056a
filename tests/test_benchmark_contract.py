"""What the benchmark reads from the package.  perfbench/ traces the
package from outside: its per-layer metrics name spans by function, and a
name that no longer resolves only zeroes a metric, so these tests resolve
every one.  perfbench's files are read as text, never imported or edited."""

import ast
import importlib
import inspect
import pathlib

import numpy as np
import pytest
from posterior_lab.barron import BarronEngine
from posterior_lab.harness import TruthSpec

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _assigned_dict(path: pathlib.Path, name: str) -> ast.Dict:
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            assert isinstance(node.value, ast.Dict), name
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


def _span_names():
    analyze = PERFBENCH / "analyze.py"
    names = set()
    for table in ("INCLUSIVE", "CALLS", "EXPONENTS"):
        for value in ast.literal_eval(_assigned_dict(analyze, table)).values():
            names.add(value[0] if isinstance(value, tuple) else value)
    hooks = _assigned_dict(PERFBENCH / "tracer.py", "_POST_HOOKS")
    names.update(ast.literal_eval(key) for key in hooks.keys)
    return sorted(names)


@pytest.mark.parametrize("span", _span_names())
def test_every_traced_span_names_a_package_function(span):
    # the tracer wraps the public functions of a layer module and the public
    # methods a class defines itself, so the name must resolve the same way
    layer, *path = span.split(".")
    mod = importlib.import_module(f"posterior_lab.{layer}")
    obj = vars(mod).get(path[0])
    assert obj is not None and obj.__module__ == mod.__name__, span
    if len(path) == 2:
        assert inspect.isclass(obj), span
        obj = vars(obj).get(path[1])
    assert len(path) <= 2 and inspect.isfunction(obj), span


def test_the_tracer_reads_the_occupancy():
    occ = BarronEngine().occupancy
    assert isinstance(occ.n, int)
    assert isinstance(occ.k_by_level, np.ndarray)
    assert isinstance(occ.distinct_level, int)


def test_the_tilt_oracle_decodes_a_truth():
    assert TruthSpec.from_dict({"kind": "uniform"}) == TruthSpec("uniform")
