import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import integrate, special

from pseudodyn import (PoleResolutionError, feynman_kernel_closed,
                       feynman_kernel_quadrature, richardson_kernel,
                       truncation_tail)
from pseudodyn.propagator import _GL_NODES, _GL_WEIGHTS, _e1_aux


def test_panel_rule_is_leggauss_20():
    # the fixed table is numpy's 20-point rule bit for bit, and read-only
    nodes, weights = leggauss(20)
    assert np.array_equal(_GL_NODES, nodes)
    assert np.array_equal(_GL_WEIGHTS, weights)
    for table in (_GL_NODES, _GL_WEIGHTS):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0


def test_closed_form_frozen_values():
    assert feynman_kernel_closed(1.0, 0.0) == pytest.approx(-0.5j)
    assert feynman_kernel_closed(2.0, 0.0) == pytest.approx(-0.25j)
    # -(i/2) e^{-2i}
    assert feynman_kernel_closed(1.0, 2.0) == pytest.approx(
        -0.45464871341284085 + 0.20807341827357119j)


def test_closed_form_matches_quadrature_oracle():
    # each closed value is certified by the regularized integral,
    # extrapolated in eps
    for omega, tau in [(1.0, 0.0), (2.0, 0.0), (1.0, 2.0)]:
        oracle = richardson_kernel(omega, tau, (1e-2, 1e-3, 1e-4), 1e3 * omega)
        closed = feynman_kernel_closed(omega, tau)
        assert abs(oracle - closed) / abs(closed) < 1e-5, (omega, tau)


def test_richardson_error_below_1e7_on_criterion_1_grid():
    # the oracle's own error sits two decades below criterion 1's 1e-5 bound
    for omega in (0.5, 1.0, 2.0):
        for tau in (0.0, 0.7, 2.0):
            oracle = richardson_kernel(omega, tau, (1e-2, 1e-3, 1e-4), 1e3 * omega)
            closed = feynman_kernel_closed(omega, tau)
            assert abs(oracle - closed) / abs(closed) < 1e-7, (omega, tau)


def test_tau_sign_symmetry_exact():
    for omega in (0.5, 1.0, 3.7):
        for tau in (0.3, 1.0, 12.0):
            assert feynman_kernel_closed(omega, tau) == feynman_kernel_closed(omega, -tau)
    # the quadrature integrates the E -> -E fold cos(E tau), so it takes no
    # transform sign and reverses tau exactly
    for omega, tau in [(0.5, 0.7), (2.0, 2.0), (1.0, 12.0)]:
        assert (feynman_kernel_quadrature(omega, -tau, 1e-3, 1e3 * omega)
                == feynman_kernel_quadrature(omega, tau, 1e-3, 1e3 * omega))


def test_unimodular_scale():
    rng = np.random.default_rng(1)
    for omega, tau in zip(rng.uniform(0.2, 5, 16), rng.uniform(-9, 9, 16)):
        assert abs(feynman_kernel_closed(omega, tau)) == pytest.approx(1 / (2 * omega))


def test_omega_must_be_positive():
    for omega in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            feynman_kernel_closed(omega, 1.0)
    # a non-finite omega or tau is refused before any arithmetic
    for args, name in [((np.inf, 1.0), "omega"), ((1.0, np.nan), "tau"),
                       ((1.0, -np.inf), "tau"),
                       ((np.array([1.0, np.inf]), 1.0), "omega"),
                       ((np.array([1.0, 2.0]), np.array([0.5, np.nan])), "tau")]:
        with pytest.raises(ValueError, match=name):
            feynman_kernel_closed(*args)
    # the truncation tail names the argument instead of failing to converge
    for args, name in [((1.0, np.nan, 100.0), "tau"), ((1.0, np.inf, 100.0), "tau"),
                       ((1.0, 1.0, np.inf), "e_cut")]:
        with pytest.raises(ValueError, match=name):
            truncation_tail(*args)
    # non-finite omega, tau or eps: never a silent 0j or nan
    for args in [(np.nan, 0.0, 1e-3), (np.inf, 0.0, 1e-3), (0.0, 0.0, 1e-3),
                 (1.0, np.nan, 1e-3), (1.0, np.inf, 1e-3),
                 (1.0, 0.0, np.nan), (1.0, 0.0, np.inf), (1.0, 0.0, 0.0)]:
        with pytest.raises(ValueError):
            feynman_kernel_quadrature(*args, 200.0)


def test_quadrature_small_cutoff_example():
    # at E_cut = 200 the truncated integral carries a ~1.6e-3 tail of its
    # own; the estimate is within 1e-3 of the closed form once that
    # self-reported truncation is accounted for
    q = feynman_kernel_quadrature(1.0, 0.0, 1e-3, 200.0)
    tail = truncation_tail(1.0, 0.0, 200.0)
    assert abs(q + tail - (-0.5j)) < 1e-3
    assert abs(q - (-0.5j)) < abs(tail) + 1e-3


def test_quadrature_matches_closed_at_acceptance_settings():
    for omega in (0.5, 1.0, 2.0):
        closed = feynman_kernel_closed(omega, 0.7)
        q = feynman_kernel_quadrature(omega, 0.7, 1e-4, 1e3 * omega)
        assert abs(q - closed) / abs(closed) < 1e-3


def test_eps_refinement_monotone_against_truncated_reference():
    # compare against closed form plus the (eps-independent) truncation
    # remainder, so only the eps bias is being refined
    reference = feynman_kernel_closed(1.0, 0.0) - truncation_tail(1.0, 0.0, 1000.0)
    errs = [abs(feynman_kernel_quadrature(1.0, 0.0, eps, 1000.0) - reference)
            for eps in (1e-2, 1e-3, 1e-4)]
    assert errs[0] > errs[1] > errs[2]


def test_under_resolved_grid_raises():
    with pytest.raises(PoleResolutionError):
        feynman_kernel_quadrature(1.0, 0.0, 1e-3, 200.0, n_points=500)


def test_eps_below_double_resolution_at_the_pole_raises():
    # ulp(30^2) = 1.1e-13: the pole half-width eps / 60 rounds away and the
    # unguarded mesh returned Im -0.0349 against the closed form's -0.00257
    for eps in (1e-14, 1e-13):
        with pytest.raises(PoleResolutionError, match="ulp"):
            feynman_kernel_quadrature(30.0, 1.0, eps, 3e3)


def test_node_count_grows_as_log_of_inverse_eps():
    # eps = 1e-8 grades each pole down to half-width 5e-9 in 27 doublings,
    # so 100 000 nodes suffice where a fixed fraction-of-eps spacing would
    # need billions of points
    q = feynman_kernel_quadrature(1.0, 0.0, 1e-8, 1000.0, n_points=100_000)
    reference = feynman_kernel_closed(1.0, 0.0) - truncation_tail(1.0, 0.0, 1000.0)
    assert abs(q - reference) < 1e-3


def test_over_budget_mesh_refused_before_allocation():
    # 3.2e12 nodes at tau = 1, e_cut = 1e12 (oscillation-capped panels of
    # length 4 pi): the count is checked before any array
    tracemalloc.start()
    try:
        with pytest.raises(PoleResolutionError):
            feynman_kernel_quadrature(1.0, 1.0, 1e-3, 1e12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_node_count_grows_as_log_of_cutoff_at_tau_zero():
    # with no oscillation to resolve, panels double out to e_cut = 1e12 in
    # 51 steps: 1 260 nodes on the half line
    q = feynman_kernel_quadrature(1.0, 0.0, 1e-3, 1e12, n_points=1_260)
    tail = truncation_tail(1.0, 0.0, 1e12)
    assert abs(q - (feynman_kernel_closed(1.0, 0.0) - tail)) < 1e-3
    # against the finite-eps contour value the only error is rounding
    assert abs(q - (-0.5j / np.sqrt(1.0 - 1e-3j) - tail)) < 1e-12


def test_criterion_1_calls_fit_a_fixed_node_budget():
    # the largest criterion-1 mesh (omega 2, tau 2, eps 1e-4, e_cut 2000)
    # has 7 060 nodes on [0, e_cut]
    for omega in (0.5, 1.0, 2.0):
        for tau in (0.0, 0.7, 2.0):
            for eps in (1e-2, 1e-3, 1e-4):
                feynman_kernel_quadrature(omega, tau, eps, 1e3 * omega,
                                          n_points=7_060)
    with pytest.raises(PoleResolutionError):
        feynman_kernel_quadrature(2.0, 2.0, 1e-4, 2e3, n_points=7_059)


def _truncated_reference(omega, tau, eps, e_cut):
    """(1/2pi) int_{-e_cut}^{e_cut} e^{i E tau} / (E^2 - omega^2 + i eps) dE
    in closed form: the full-line contour value at the pole
    e0 = sqrt(omega^2 - i eps) minus the two tails, by partial fractions,
    (1/pi) int_a^inf cos(E tau) / (E - c) dE from scipy's complex E1."""
    e0 = np.sqrt(omega * omega - 1j * eps)
    t = abs(tau)
    full = -0.5j * np.exp(-1j * e0 * t) / e0
    if t == 0:
        return full - np.log((e_cut + e0) / (e_cut - e0)) / (2.0 * np.pi * e0)

    def cos_tail(c):
        z = 1j * t * (e_cut - c)
        return 0.5 * (np.exp(1j * t * c) * special.exp1(-z)
                      + np.exp(-1j * t * c) * special.exp1(z))

    return full - (cos_tail(e0) - cos_tail(-e0)) / (2.0 * np.pi * e0)


def test_quadrature_matches_contour_reference_at_finite_eps():
    # worst measured error 3.7e-12 (omega 3, tau 0, eps 1e-4, rounding
    # near the pole); the bound leaves a factor 27.  Length-1 panels next
    # to the pole at omega = 0.1 missed by 1.3e-9 at tau = 40.
    for omega in (0.1, 1.0, 3.0):
        for tau in (0.0, 2.0, 12.0, 40.0):
            for eps in (1e-2, 1e-4):
                ref = _truncated_reference(omega, tau, eps, 100 * omega)
                q = feynman_kernel_quadrature(omega, tau, eps, 100 * omega)
                assert abs(q - ref) <= 1e-10 * abs(ref), (omega, tau, eps)


def test_richardson_needs_two_eps():
    with pytest.raises(ValueError):
        richardson_kernel(1.0, 0.0, eps_values=(1e-3,))


def test_e_cut_validated():
    for e_cut in (5.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="e_cut"):
            feynman_kernel_quadrature(1.0, 0.0, 1e-3, e_cut)


def test_cisi_matches_scipy_sici():
    # h(x) = e^{ix} E1(ix) = -e^{ix} (Ci(x) + i (pi/2 - Si(x)))
    x = np.concatenate([np.geomspace(1e-6, 1e5, 4001),
                        np.linspace(1.9, 2.1, 201)])
    z = -np.exp(-1j * x) * _e1_aux(x)
    ci, si = z.real, 0.5 * np.pi - z.imag
    ref_si, ref_ci = special.sici(x)
    assert np.all(np.abs(ci - ref_ci) <= 1e-13 * np.maximum(1.0, np.abs(ref_ci)))
    assert np.all(np.abs(si - ref_si) <= 1e-13 * np.maximum(1.0, np.abs(ref_si)))


def _quadrature_tail(omega, tau, e_cut):
    """(1/pi) int_{e_cut}^inf cos(E tau)/(E^2 - omega^2) dE by adaptive
    quadrature, with the oscillatory-weight rule when tau != 0."""
    f = lambda e: 1.0 / (e * e - omega * omega)
    if tau == 0:
        val, _ = integrate.quad(f, e_cut, np.inf)
    else:
        val, _ = integrate.quad(f, e_cut, np.inf, weight="cos", wvar=abs(tau))
    return val / np.pi


def test_truncation_tail_matches_quadrature_reference():
    for omega in (0.5, 1.0, 2.0, 3.7):
        for tau in (0.0, 1e-4, 0.01, 0.7, 2.0, 12.0):
            for cut in (10.0, 200.0, 1000.0):
                ref = _quadrature_tail(omega, tau, cut * omega)
                got = truncation_tail(omega, tau, cut * omega)
                assert got.imag == 0.0
                assert abs(got.real - ref) <= 1e-5 * abs(ref), (omega, tau, cut)
