"""Spans recorded from outside the library, around calls into its layers.

A traced pass swaps each instrumented public function for a wrapper in
every ``pseudodyn`` module namespace that binds it (modules import each
other's functions by name, so patching the defining module alone would miss
calls such as ``verifier -> gaussian.evaluate``).  The library source is not
touched; ``Tracer.installed()`` restores the originals on exit.

A span is ``[name, start, end, parent, attrs]`` where ``parent`` indexes the
enclosing span (-1 at top level).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import sys
import time
from contextlib import contextmanager

PACKAGE = "pseudodyn"

# Complex128 bytes per grid point, and the four array passes (read + write
# of the forward and the inverse transform) of one split step.
_COMPLEX_BYTES = 16
_FFT_PASSES = 4


def _propagate_attrs(bound) -> dict:
    """Split-step work of one propagate_driven call, computed from its
    arguments with the solver's own step rule (ceil(span / dt))."""
    args = bound.arguments
    grid = args["grid"]
    span = args["t_final"] - args["t_initial"]
    steps = math.ceil(span / grid.dt - 1e-12) if span > 0 else 0
    shape = getattr(args["psi0"], "shape", ())
    rows = math.prod(shape[:-1]) if shape else 1
    return {"steps": steps, "rows": rows, "points": grid.n_points}


def _ground_state_attrs(bound) -> dict:
    return {"grid": dataclasses.astuple(bound.arguments["grid"])}


# (module, attribute, attrs hook): the layer boundaries that the per-layer
# metrics in layer_metrics() are derived from.  A span is named
# "<module>.<attribute>".
TARGETS = (
    ("propagator", "richardson_kernel", None),
    ("sources", "z_exponent", None),
    ("pseudodynamics", "calibrate", None),
    ("pseudodynamics", "evolution_functional", None),
    ("gaussian", "apply_first_order", None),
    ("gaussian", "apply_second_order", None),
    ("gaussian", "evaluate", None),
    ("verifier", "first_order_residual", None),
    ("verifier", "schrodinger_residual", None),
    ("verifier", "resolve_hamiltonian_signs", None),
    ("verifier", "semigroup_check", None),
    ("qm_oracle", "ground_state", _ground_state_attrs),
    ("qm_oracle", "propagate_driven", _propagate_attrs),
    ("qm_oracle", "kernel_matrix_solver", None),
    ("qm_oracle", "cross_coefficient_solver", None),
    ("reports", "sweep_csv_row", None),
    ("reports", "ResidualReport.to_json", None),
)


def _wrap(fn, name, attrs_hook, spans, stack):
    signature = inspect.signature(fn) if attrs_hook else None
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        idx = len(spans)
        attrs = attrs_hook(signature.bind(*args, **kwargs)) if attrs_hook else None
        spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, attrs])
        stack.append(idx)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            spans[idx][1] = start
            spans[idx][2] = end

    return functools.wraps(fn)(wrapper)


class Tracer:
    """In-memory span recorder; one span list per traced block."""

    def __init__(self):
        self.passes: list[list[list]] = []

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, recording into a
        new span list appended to ``passes``."""
        spans: list[list] = []
        stack: list[int] = []
        self.passes.append(spans)
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        undo = []
        try:
            for mod_name, attr, hook in TARGETS:
                name = f"{mod_name}.{attr}"
                module = sys.modules[f"{PACKAGE}.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, _wrap(original, name, hook, spans, stack))
                    undo.append((cls, meth, original))
                    continue
                original = getattr(module, attr)
                wrapper = _wrap(original, name, hook, spans, stack)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
            yield spans
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)


def aggregate(spans: list[list]) -> dict:
    """Per span name: inclusive seconds, self seconds and call count."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        entry["calls"] += 1
    return out


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    agg = aggregate(spans)

    def total(name):
        return agg.get(name, {}).get("total_s", 0.0)

    def self_time(name):
        return agg.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    fd_parents = {i for i, s in enumerate(spans)
                  if s[0] in ("verifier.first_order_residual",
                              "verifier.schrodinger_residual")}
    fd_rebuilds = sum(1 for s in spans
                      if s[0] == "pseudodynamics.evolution_functional"
                      and s[3] in fd_parents)
    grids = {s[4]["grid"] for s in spans if s[0] == "qm_oracle.ground_state"}
    steps = [s[4] for s in spans if s[0] == "qm_oracle.propagate_driven"]
    split_steps = sum(a["steps"] * a["rows"] for a in steps)
    fft_bytes = sum(a["steps"] * a["rows"] * a["points"] * _COMPLEX_BYTES
                    * _FFT_PASSES for a in steps)
    propagate_s = total("qm_oracle.propagate_driven")
    return {
        "propagator.quadrature_s": (total("propagator.richardson_kernel"), "s"),
        "sources.z_exponent_s": (total("sources.z_exponent"), "s"),
        "sources.z_exponent_calls": (calls("sources.z_exponent"), "count"),
        "pseudodynamics.calibrate_s": (total("pseudodynamics.calibrate"), "s"),
        "pseudodynamics.evolution_functional_s":
            (total("pseudodynamics.evolution_functional"), "s"),
        "pseudodynamics.evolution_functional_calls":
            (calls("pseudodynamics.evolution_functional"), "count"),
        "gaussian.apply_first_order_s": (total("gaussian.apply_first_order"), "s"),
        "gaussian.apply_second_order_s": (total("gaussian.apply_second_order"), "s"),
        "gaussian.evaluate_s": (total("gaussian.evaluate"), "s"),
        "gaussian.evaluate_calls": (calls("gaussian.evaluate"), "count"),
        "verifier.first_order_residual_s":
            (self_time("verifier.first_order_residual"), "s"),
        "verifier.schrodinger_residual_s":
            (self_time("verifier.schrodinger_residual"), "s"),
        "verifier.resolve_hamiltonian_signs_s":
            (self_time("verifier.resolve_hamiltonian_signs"), "s"),
        "verifier.semigroup_check_s": (self_time("verifier.semigroup_check"), "s"),
        "verifier.fd_rebuilds": (fd_rebuilds, "count"),
        "qm_oracle.ground_state_s": (total("qm_oracle.ground_state"), "s"),
        "qm_oracle.ground_state_calls": (calls("qm_oracle.ground_state"), "count"),
        "qm_oracle.ground_state_distinct_grids": (len(grids), "count"),
        "qm_oracle.propagate_driven_s": (propagate_s, "s"),
        "qm_oracle.split_steps": (split_steps, "count"),
        "qm_oracle.split_step_row_us":
            (1e6 * propagate_s / split_steps if split_steps else 0.0, "us"),
        "qm_oracle.fft_bytes_computed": (fft_bytes, "B"),
        "qm_oracle.kernel_matrix_solver_self_s":
            (self_time("qm_oracle.kernel_matrix_solver"), "s"),
        "qm_oracle.cross_coefficient_s":
            (total("qm_oracle.cross_coefficient_solver"), "s"),
        "reports.emit_s": (total("reports.sweep_csv_row")
                           + total("reports.ResidualReport.to_json"), "s"),
    }
