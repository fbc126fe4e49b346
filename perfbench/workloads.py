"""The benchmark workloads and the output checks on their results.

Each workload is built once from the seed and returns a ``run_pass``
closure; every pass does the same work on the same inputs and returns one
``Outcome`` per check.  All calls go through module attributes at call time
(``pd.first_order_residual``, ``reports.sweep_csv_row``) so that a traced
pass sees the wrappers that ``spans.Tracer`` installs.

Tolerances are the library's defaults and the CLI's (which the acceptance
suite pins); the benchmark never loosens them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

BOX = 2.0 * np.pi
TIMES = (0.1, 1.0, 10.0)
SEMIGROUP_PARTITIONS = 10
SEMIGROUP_TOL = 1e-12          # CLI tol_coeff; criterion 4
RICHARDSON_TOL = 1e-5          # criterion 1
KERNEL_TOL_COINCIDENT = 1e-3   # CLI tol_kernel_coincident
KERNEL_TOL_GAP = 1e-2          # CLI tol_kernel_gap
BRIDGE_TOL = 1e-6              # CLI tol_bridge


@dataclass
class Outcome:
    """One check.

    ``passed``: the verdict is pass and the output check agrees.
    ``sound``: the exact (coefficient-level) results are within tolerance
    and the verdict agrees with the residuals its own report carries.  A
    numeric column that misses its tolerance (finite differences, spreads,
    extrapolation, bridge phase) fails the check but leaves it sound; a
    check that raises is neither.
    """

    kind: str
    passed: bool
    sound: bool
    diagnostics: dict = field(default_factory=dict)


def _attempt(kind: str, check) -> Outcome:
    try:
        return check()
    except Exception as err:  # a check that raises has no verdict; count it and go on
        print(f"perfbench: {kind} check raised {type(err).__name__}: {err}",
              file=sys.stderr)
        return Outcome(kind, passed=False, sound=False)


def _judge_identity(report) -> Outcome:
    """Output check of a first-order or Schrodinger report."""
    tol = report.tolerances
    coeff = [report.max_q2, report.max_q1]
    judged = [(x, tol["coeff"]) for x in coeff]
    if report.identity == "first_order_evolution":
        judged.append((abs(report.q0), tol["coeff"]))
    if "spread" in tol:
        judged.append((report.numeric_spread, tol["spread"]))
    judged.append((report.fd_residual, tol["numeric"]))
    coeff_ok = all(x < tol["coeff"] for x in coeff)
    consistent = report.passed == all(x < t for x, t in judged)
    return Outcome(report.identity, passed=report.passed and coeff_ok,
                   sound=coeff_ok and consistent,
                   diagnostics={"coeff_headroom": max(coeff) / tol["coeff"],
                                "fd_headroom": report.fd_residual / tol["numeric"]})


def _emit(report, reports):
    """Emit a report as the CLI does (JSON record and sweep CSV row), in
    memory."""
    report.to_json()
    reports.sweep_csv_row(report)


def _unit_layer(pd, space, seed: int):
    vec = pd.ModeVector.random(space, np.random.default_rng(seed))
    return pd.ModeVector(space, vec.values / np.linalg.norm(vec.values))


def _identity_point(pd, reports, n: int, mass: float, seed: int,
                    rng: np.random.Generator) -> list[Outcome]:
    """First-order, Schrodinger and semigroup checks at every T of one
    (N, mass) point, each report emitted through ``reports``."""
    space = pd.build_mode_space(n, BOX, mass)
    calib = pd.calibrate(space)
    layer = _unit_layer(pd, space, seed)
    out = []
    for t in TIMES:
        state = pd.evolution_functional(space, layer, t, calibration=calib)
        for check in (pd.first_order_residual, pd.schrodinger_residual):
            def run(check=check):
                report = check(state, seed=seed)
                _emit(report, reports)
                return _judge_identity(report)
            out.append(_attempt(check.__name__, run))
        worst = 0.0
        for _ in range(SEMIGROUP_PARTITIONS):
            cuts = np.sort(rng.uniform(0.0, t, 4))
            parts = np.diff(np.concatenate([[0.0], cuts, [t]]))

            def run(parts=parts):
                dev = pd.semigroup_check(space, layer, parts, calibration=calib)
                ok = dev < SEMIGROUP_TOL
                return Outcome("semigroup", passed=ok, sound=ok,
                               diagnostics={"semigroup_deviation": dev})
            outcome = _attempt("semigroup", run)
            worst = max(worst, outcome.diagnostics.get("semigroup_deviation", np.inf))
            out.append(outcome)
        _emit(pd.ResidualReport(
            identity="semigroup", numeric_spread=worst,
            params={"num_modes": n, "mass": mass, "box_length": BOX,
                    "hbar": space.hbar, "t": t, "seed": seed,
                    "partitions": SEMIGROUP_PARTITIONS},
            tolerances={"coeff": SEMIGROUP_TOL},
            verdict="pass" if worst < SEMIGROUP_TOL else "fail"), reports)
    return out


def _richardson_point(pd, omega: float, tau: float) -> Outcome:
    closed = pd.feynman_kernel_closed(omega, tau)
    rich = pd.richardson_kernel(omega, tau, (1e-2, 1e-3, 1e-4), 1e3 * omega)
    rel = abs(rich - closed) / abs(closed)
    return Outcome("richardson", passed=rel < RICHARDSON_TOL, sound=True,
                   diagnostics={"rel_error": rel})


def _identity_ladder(pd, reports, seed, modes, masses, richardson=((), ())):
    def run_pass() -> list[Outcome]:
        rng = np.random.default_rng(seed)
        out = []
        for n in modes:
            for mass in masses:
                out += _identity_point(pd, reports, n, mass, seed, rng)
        for omega in richardson[0]:
            for tau in richardson[1]:
                out.append(_attempt("richardson",
                                    lambda: _richardson_point(pd, omega, tau)))
        return out
    return run_pass


def acceptance_grid(pd, reports, seed: int, smoke: bool):
    """The default sweep grid plus the criterion-1 Richardson points: many
    small calls, so per-call overhead, FD rebuilds, evaluate loops and the
    quadrature meshes dominate."""
    if smoke:
        return _identity_ladder(pd, reports, seed, (2, 8), (1.0,),
                                ((1.0,), (0.7,)))
    return _identity_ladder(pd, reports, seed, (2, 8, 16, 64), (0.5, 1.0, 2.0),
                            ((0.5, 1.0, 2.0), (0.0, 0.7, 2.0)))


def mode_algebra(pd, reports, seed: int, smoke: bool):
    """The same checks on a doubling mode-count ladder up to N = 1024 at
    mass 1: few large calls, dense N x N algebra dominates.  From N = 128 on
    the fixed FD step gives false FAILs; they are counted, not filtered."""
    modes = (8, 128) if smoke else (8, 16, 32, 64, 128, 256, 512, 1024)
    return _identity_ladder(pd, reports, seed, modes, (1.0,))


def _kernel_case(pd, grid, boundary, moms, t0, t1, drive, tol, name) -> Outcome:
    lhs = pd.kernel_matrix_solver(grid, boundary, moms, moms, t0, t1, drive)
    rhs = pd.kernel_matrix_genfunc(moms, moms, grid.omega, grid.hbar, t0, t1, drive)
    report = pd.compare_kernels(lhs, rhs, tol,
                                params={"case": name, "t0": t0, "t1": t1})
    report.to_json()
    spread = report.numeric_spread
    within = spread is not None and spread < tol
    return Outcome("kernel", passed=report.passed and within,
                   sound=report.passed == within,
                   diagnostics={} if spread is None
                   else {"spread_headroom": spread / tol})


def _bridge_mode(pd, space, calib, k: int, points: int) -> Outcome:
    omega = space.frequency(k)
    grid = pd.QMGrid(-12.0, 12.0, points, 1e-3, omega)
    boundary = pd.BoundaryFactors.vacuum(grid)
    c_a = pd.cross_coefficient_solver(grid, boundary, 1.0, 1.0, 0.0, 0.5)
    c_b = pd.cross_coefficient_solver(grid, boundary, 1.0, 1.0, 0.0, 1.0)
    state = pd.evolution_functional(space, pd.ModeVector.basis(space, k, 1.0),
                                    0.5, calibration=calib)
    idx = int(np.argmax(np.abs(state.coeffs.b)))
    predicted = complex(pd.advance(state, 0.5).coeffs.b[idx] / state.coeffs.b[idx])
    dev = abs(c_b / c_a - predicted)
    return Outcome("bridge", passed=dev < BRIDGE_TOL, sound=True,
                   diagnostics={"bridge_deviation": dev})


def oracle_kernel(pd, reports, seed: int, smoke: bool):
    """The ``pseudodyn oracle-qm`` default case set, in process: three
    kernel identities on one grid and the two-frequency mode bridge.  Three
    ground states on two distinct grids.  The case set is fixed, so the seed
    does not change its inputs."""
    points, n_moms = (256, 4) if smoke else (1024, 32)
    moms = np.linspace(-3.0, 3.0, n_moms)
    drive = np.sin(np.linspace(0.0, 2.0, 2001))
    cases = (("coincident", 0.0, 0.0, None, KERNEL_TOL_COINCIDENT),
             ("gap_1", 0.0, 1.0, None, KERNEL_TOL_GAP),
             ("driven", 0.0, 2.0, drive, KERNEL_TOL_GAP))

    def run_pass() -> list[Outcome]:
        grid = pd.QMGrid(-12.0, 12.0, points, 1e-3, 1.0)
        boundary = pd.BoundaryFactors.vacuum(grid)
        out = [_attempt("kernel", lambda c=case: _kernel_case(
                   pd, grid, boundary, moms, c[1], c[2], c[3], c[4], c[0]))
               for case in cases]
        space = pd.build_mode_space(16, BOX, 1.0)
        calib = pd.calibrate(space)
        out += [_attempt("bridge", lambda k=k: _bridge_mode(pd, space, calib, k, points))
                for k in (0, 1)]
        return out
    return run_pass


WORKLOADS = {
    "acceptance_grid": acceptance_grid,
    "mode_algebra": mode_algebra,
    "oracle_kernel": oracle_kernel,
}
