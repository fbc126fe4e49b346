import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

from pseudodyn import (PoleResolutionError, feynman_kernel_closed,
                       feynman_kernel_quadrature, richardson_kernel,
                       truncation_tail)
from pseudodyn.propagator import _e1_aux


def test_closed_form_frozen_values():
    assert feynman_kernel_closed(1.0, 0.0) == pytest.approx(-0.5j)
    assert feynman_kernel_closed(2.0, 0.0) == pytest.approx(-0.25j)
    # -(i/2) e^{-2i}
    assert feynman_kernel_closed(1.0, 2.0) == pytest.approx(
        -0.45464871341284085 + 0.20807341827357119j)


def test_closed_form_matches_quadrature_oracle():
    # each closed value is certified by the regularized integral,
    # extrapolated in eps, for either transform sign: the closed form
    # therefore takes no sign
    for sigma in (1, -1):
        for omega, tau in [(1.0, 0.0), (2.0, 0.0), (1.0, 2.0)]:
            oracle = richardson_kernel(omega, tau, (1e-2, 1e-3, 1e-4), 1e3 * omega,
                                       sigma=sigma)
            closed = feynman_kernel_closed(omega, tau)
            assert abs(oracle - closed) / abs(closed) < 1e-5, (sigma, omega, tau)


def test_richardson_error_below_1e7_on_criterion_1_grid():
    # the oracle's own error sits two decades below criterion 1's 1e-5 bound
    for sigma in (1, -1):
        for omega in (0.5, 1.0, 2.0):
            for tau in (0.0, 0.7, 2.0):
                oracle = richardson_kernel(omega, tau, (1e-2, 1e-3, 1e-4),
                                           1e3 * omega, sigma=sigma)
                closed = feynman_kernel_closed(omega, tau)
                assert abs(oracle - closed) / abs(closed) < 1e-7, (sigma, omega, tau)


def test_tau_sign_symmetry_exact():
    for omega in (0.5, 1.0, 3.7):
        for tau in (0.3, 1.0, 12.0):
            assert feynman_kernel_closed(omega, tau) == feynman_kernel_closed(omega, -tau)


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


def test_invalid_sigma_rejected():
    with pytest.raises(ValueError, match="sigma"):
        feynman_kernel_quadrature(1.0, 0.0, 1e-3, 200.0, sigma=2)


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
        feynman_kernel_quadrature(1.0, 0.0, 1e-3, 200.0, n_points=1000)


def test_node_count_grows_as_log_of_inverse_eps():
    # eps = 1e-8 grades each pole down to half-width 5e-9 in 27 doublings,
    # so 100 000 nodes suffice where a fixed fraction-of-eps spacing would
    # need billions of points
    q = feynman_kernel_quadrature(1.0, 0.0, 1e-8, 1000.0, n_points=100_000)
    reference = feynman_kernel_closed(1.0, 0.0) - truncation_tail(1.0, 0.0, 1000.0)
    assert abs(q - reference) < 1e-3


def test_over_budget_mesh_refused_before_allocation():
    # 4e13 nodes at e_cut = 1e12: the count is checked before any array
    tracemalloc.start()
    try:
        with pytest.raises(PoleResolutionError):
            feynman_kernel_quadrature(1.0, 0.0, 1e-3, 1e12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


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
