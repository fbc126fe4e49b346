"""Acceptance suite: every exit criterion at its declared tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline).
"""

import time

import numpy as np

from pseudodyn import (BoundaryFactors, GaussianCoefficients, EvolutionState,
                       ModeVector, QMGrid, advance, build_mode_space,
                       calibrate, compare_kernels, cross_coefficient_solver,
                       evolution_functional, feynman_kernel_closed,
                       feynman_kernel_quadrature, first_order_residual,
                       gradient_check, kernel_matrix_genfunc,
                       kernel_matrix_solver, richardson_kernel,
                       schrodinger_residual, semigroup_check)

GRID_MODES = (2, 8, 16, 64)
GRID_MASSES = (0.5, 1.0, 2.0)
GRID_TIMES = (0.1, 1.0, 10.0)
BOX = 2.0 * np.pi


def _verdict(num, name, ok, elapsed=None):
    stamp = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{stamp}")
    assert ok, f"criterion {num} ({name}) failed"


def unit_random_layer(space, seed):
    vec = ModeVector.random(space, np.random.default_rng(seed))
    return ModeVector(space, vec.values / np.linalg.norm(vec.values))


def calibrated_state(n, mass, t, seed=99):
    space = build_mode_space(n, BOX, mass)
    calib = calibrate(space)
    return evolution_functional(space, unit_random_layer(space, seed), t,
                                calibration=calib)


def test_criterion_1_propagator_quadrature():
    start = time.perf_counter()
    ok = True
    for omega in (0.5, 1.0, 2.0):
        for tau in (0.0, 0.7, 2.0):
            closed = feynman_kernel_closed(omega, tau)
            quad = feynman_kernel_quadrature(omega, tau, 1e-4, 1e3 * omega)
            ok &= abs(quad - closed) / abs(closed) < 1e-3
            rich = richardson_kernel(omega, tau, (1e-2, 1e-3, 1e-4), 1e3 * omega)
            ok &= abs(rich - closed) / abs(closed) < 1e-5
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _verdict(1, "propagator closed form vs quadrature", ok, elapsed)


def test_criterion_2_first_order_exactness():
    start = time.perf_counter()
    ok = True
    for n in GRID_MODES:
        for mass in GRID_MASSES:
            space = build_mode_space(n, BOX, mass)
            calib = calibrate(space)
            layer = unit_random_layer(space, 99)
            for t in GRID_TIMES:
                state = evolution_functional(space, layer, t, calibration=calib)
                rep = first_order_residual(state, tol_coeff=1e-12,
                                           tol_numeric=1e-6)
                ok &= rep.passed
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _verdict(2, "first-order evolution equation exactness", ok, elapsed)


def test_criterion_3_schrodinger_up_to_t_function():
    start = time.perf_counter()
    ok = True
    for n in GRID_MODES:
        for mass in GRID_MASSES:
            space = build_mode_space(n, BOX, mass)
            calib = calibrate(space)  # the same calibration closes both laws
            layer = unit_random_layer(space, 99)
            for t in GRID_TIMES:
                state = evolution_functional(space, layer, t, calibration=calib)
                rep = schrodinger_residual(state, tol_coeff=1e-10,
                                           tol_spread=1e-9)
                ok &= rep.passed
                q0 = rep.q0
                gap = rep.params["trace_identity_gap"]
                ok &= gap <= 1e-12 * max(1.0, abs(q0))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _verdict(3, "Schrodinger form up to a function of T", ok, elapsed)


def test_criterion_4_evolution_structure():
    space = build_mode_space(16, BOX, 1.0)
    calib = calibrate(space)
    layer = unit_random_layer(space, 5)
    states = {t: evolution_functional(space, layer, t, calibration=calib)
              for t in GRID_TIMES}
    a_ref = states[GRID_TIMES[0]].coeffs.a
    ok = all(np.array_equal(a_ref, s.coeffs.a) for s in states.values())

    b0 = evolution_functional(space, layer, 0.0, calibration=calib).coeffs.b
    for t, s in states.items():
        target = b0 * np.exp(-1j * space.frequencies * t)
        ok &= np.max(np.abs(s.coeffs.b - target)) < 1e-12

    rng = np.random.default_rng(17)
    for _ in range(10):
        cuts = np.sort(rng.uniform(0.0, 3.0, 4))
        parts = np.diff(np.concatenate([[0.0], cuts, [3.0]]))
        ok &= semigroup_check(space, layer, parts, calibration=calib) < 1e-12
    _verdict(4, "A invariance, b phase law, semigroup", ok)


def test_criterion_5_kernel_identity_qm_scale():
    start = time.perf_counter()
    grid = QMGrid(q_min=-12.0, q_max=12.0, n_points=1024, dt=1e-3, omega=1.0)
    boundary = BoundaryFactors.vacuum(grid)
    p0s = np.linspace(-3.0, 3.0, 32)
    ps = np.linspace(-3.0, 3.0, 32)

    lhs = kernel_matrix_solver(grid, boundary, p0s, ps, 0.0, 0.0)
    rhs = kernel_matrix_genfunc(p0s, ps, 1.0, 1.0, 0.0, 0.0)
    ok = compare_kernels(lhs, rhs, 1e-3).passed

    lhs = kernel_matrix_solver(grid, boundary, p0s, ps, 0.0, 1.0)
    rhs = kernel_matrix_genfunc(p0s, ps, 1.0, 1.0, 0.0, 1.0)
    ok &= compare_kernels(lhs, rhs, 1e-2).passed

    tt = np.linspace(0.0, 2.0, 2001)
    drive = np.sin(tt)
    lhs = kernel_matrix_solver(grid, boundary, p0s, ps, 0.0, 2.0, drive)
    rhs = kernel_matrix_genfunc(p0s, ps, 1.0, 1.0, 0.0, 2.0, drive)
    ok &= compare_kernels(lhs, rhs, 1e-2).passed

    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _verdict(5, "boundary-weighted kernel vs generating functional", ok, elapsed)


def test_criterion_6_mode_bridge_coherence():
    space = build_mode_space(4, BOX, 1.0)  # frequencies 1 and sqrt(2)
    calib = calibrate(space)
    ok = True
    for k in (0, 1):
        omega = space.frequency(k)
        grid = QMGrid(-12.0, 12.0, 1024, 1e-3, omega)
        boundary = BoundaryFactors.vacuum(grid)
        c_a = cross_coefficient_solver(grid, boundary, 1.0, 1.0, 0.0, 0.5)
        c_b = cross_coefficient_solver(grid, boundary, 1.0, 1.0, 0.0, 1.0)
        measured = c_b / c_a

        state = evolution_functional(space, ModeVector.basis(space, k), 0.5,
                                     calibration=calib)
        idx = int(np.argmax(np.abs(state.coeffs.b)))
        predicted = complex(advance(state, 0.5).coeffs.b[idx]
                            / state.coeffs.b[idx])
        ok &= abs(measured - predicted) < 1e-6
    _verdict(6, "mode bridge phase coherence", ok)


def test_criterion_7_gradient_checks():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for trial in range(16):
        n = 6
        a = rng.uniform(-0.5, 0.5, (n, n)) + 1j * rng.uniform(-0.5, 0.5, (n, n))
        b = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        g = GaussianCoefficients(a, b, c)
        worst = max(worst, gradient_check(g, u_samples=2, step=1e-5, seed=trial))
    _verdict(7, f"gradient vs central differences (worst {worst:.2e})",
             worst < 1e-6)


def test_criterion_8_negative_controls():
    space = build_mode_space(16, BOX, 1.0)
    calib = calibrate(space)
    layer = unit_random_layer(space, 99)
    state = evolution_functional(space, layer, 1.0, calibration=calib)

    # (a) perturb one A pairing by 1e-3
    a = state.coeffs.a.copy()
    pos = space.index_of(3)
    a[pos, space.negation[pos]] += 1e-3
    a[space.negation[pos], pos] = a[pos, space.negation[pos]]
    broken = EvolutionState(space, state.t, state.v_hat,
                            GaussianCoefficients(a, state.coeffs.b,
                                                 state.coeffs.c),
                            state.calibration)
    ok = not first_order_residual(broken).passed
    ok &= not schrodinger_residual(broken).passed

    # (b) flip the sign of lambda^2 (lambda real instead of imaginary)
    flipped = calibrate(space, force_lambda=np.sqrt(2.0))
    state_flipped = evolution_functional(space, layer, 1.0, calibration=flipped)
    ok &= not first_order_residual(state_flipped).passed

    # (c) mismatch omega between the kernel identity sides
    grid = QMGrid(-12.0, 12.0, 512, 1e-3, 1.0)
    boundary = BoundaryFactors.vacuum(grid)
    p0s = np.linspace(-2.0, 2.0, 8)
    ps = np.linspace(-2.0, 2.0, 8)
    lhs = kernel_matrix_solver(grid, boundary, p0s, ps, 0.0, 0.0)
    rhs = kernel_matrix_genfunc(p0s, ps, 1.3, 1.0, 0.0, 0.0)
    ok &= not compare_kernels(lhs, rhs, 1e-3).passed

    _verdict(8, "negative controls flip verdicts", ok)
