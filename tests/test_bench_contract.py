"""The library names that the benchmark under perfbench/ binds stay resolvable.

perfbench/spans.py wraps library functions by (module, attribute), and
perfbench/workloads.py calls the public API as ``pd.<name>`` (the package)
and ``reports.<name>`` (pseudodyn.reports).  Deleting or renaming any of
them, a keyword the workloads pass, or a parameter they fill by position,
would break the benchmark without failing a library test.  So would a
change to what the workloads read from the results (``state.coeffs.b``,
``report.tolerances``), which is why one smoke-size pass of each workload
runs here too.  This module only reads perfbench/.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pseudodyn
from pseudodyn import reports

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BOUND = {"pd": pseudodyn, "reports": reports}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered first: workloads.py declares its dataclasses with
    # postponed annotations, which dataclasses resolve through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _resolve(obj, dotted):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _bound_name(node):
    """(module alias, dotted attribute) of an attribute chain on a bound
    module, such as ("pd", "ModeVector.basis"), else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if parts and isinstance(node, ast.Name) and node.id in BOUND:
        return node.id, ".".join(reversed(parts))
    return None


def _workload_calls():
    """(module alias, dotted attribute, call or None) of every bound-module use."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _bound_name(node):
            uses.append(_bound_name(node) + (None,))
        if isinstance(node, ast.Call) and _bound_name(node.func):
            uses.append(_bound_name(node.func) + (node,))
    return uses


def test_span_targets_resolve():
    spans = _load("spans")
    assert spans.TARGETS
    for module, attr, _ in spans.TARGETS:
        mod = importlib.import_module(f"{spans.PACKAGE}.{module}")
        assert callable(_resolve(mod, attr)), f"{module}.{attr}"


def test_workload_names_and_keywords_resolve():
    # every call binds to the signature: its positional count as well as
    # its keywords, so deleting a parameter the workloads fill by position
    # fails here too
    uses = _workload_calls()
    assert uses
    for alias, name, call in uses:
        target = _resolve(BOUND[alias], name)
        if call is None:
            continue
        assert not any(isinstance(a, ast.Starred) for a in call.args), name
        assert all(k.arg for k in call.keywords), name
        positional = [None] * len(call.args)
        keywords = {k.arg: None for k in call.keywords}
        try:
            inspect.signature(target).bind(*positional, **keywords)
        except TypeError as err:
            raise AssertionError(f"{alias}.{name}: {err}") from None


def test_span_hook_arguments_exist():
    # the attrs hooks in spans.py read these arguments by name
    assert "grid" in inspect.signature(pseudodyn.ground_state).parameters
    assert {"psi0", "grid", "t_initial", "t_final"} <= set(
        inspect.signature(pseudodyn.propagate_driven).parameters)


def test_workload_smoke_passes_are_sound_and_pass():
    workloads = _load("workloads")
    assert workloads.WORKLOADS
    for name, build in workloads.WORKLOADS.items():
        outcomes = build(pseudodyn, reports, 3, True)()
        assert outcomes, name
        for outcome in outcomes:
            assert outcome.sound and outcome.passed, (name, outcome)


def test_traced_checks_see_their_rebuilds():
    # the identity checks build their states through the public builder
    # that spans.py wraps, so a traced run counts the FD column's rebuilds
    # and the semigroup check's direct build
    spans_module = _load("spans")
    space = pseudodyn.build_mode_space(8, 6.0, 1.0)
    calib = pseudodyn.calibrate(space)
    layer = pseudodyn.ModeVector.basis(space, 1, 1.0)
    state = pseudodyn.evolution_functional(space, layer, 1.0, calib)
    with spans_module.Tracer().installed() as spans:
        pseudodyn.first_order_residual(state)
        pseudodyn.semigroup_check(space, layer, [0.5, 0.25], calib)
    assert spans_module.layer_metrics(spans)["verifier.fd_rebuilds"][0] >= 1
    assert any(s[0] == "pseudodynamics.evolution_functional"
               and spans[s[3]][0] == "verifier.semigroup_check"
               for s in spans if s[3] >= 0)
