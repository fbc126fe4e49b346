"""The library names that the benchmark under perfbench/ binds stay resolvable.

perfbench/spans.py wraps library functions by (module, attribute), and
perfbench/workloads.py calls the public API as ``pd.<name>`` (the package)
and ``reports.<name>`` (pseudodyn.reports).  Deleting or renaming any of
them, or a keyword the workloads pass, would break the benchmark without
failing a library test.  This module only reads perfbench/.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pseudodyn
from pseudodyn import reports

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BOUND = {"pd": pseudodyn, "reports": reports}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(obj, dotted):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _workload_calls():
    """(module alias, attribute, keyword names) of every bound-module use."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    uses = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in BOUND):
            uses.append((node.value.id, node.attr, ()))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in BOUND):
            uses.append((node.func.value.id, node.func.attr,
                         tuple(k.arg for k in node.keywords if k.arg)))
    return uses


def test_span_targets_resolve():
    spans = _load_spans()
    assert spans.TARGETS
    for module, attr, _ in spans.TARGETS:
        mod = importlib.import_module(f"{spans.PACKAGE}.{module}")
        assert callable(_resolve(mod, attr)), f"{module}.{attr}"


def test_workload_names_and_keywords_resolve():
    uses = _workload_calls()
    assert uses
    for alias, name, keywords in uses:
        assert hasattr(BOUND[alias], name), f"{alias}.{name}"
        params = inspect.signature(getattr(BOUND[alias], name)).parameters
        for kw in keywords:
            assert kw in params, f"{alias}.{name}(... {kw}=...)"


def test_span_hook_arguments_exist():
    # the attrs hooks in spans.py read these arguments by name
    assert "grid" in inspect.signature(pseudodyn.ground_state).parameters
    assert {"psi0", "grid", "t_initial", "t_final"} <= set(
        inspect.signature(pseudodyn.propagate_driven).parameters)
