import numpy as np
import pytest
from scipy import integrate

from pseudodyn import (GaussianCoefficients, ModeVector, build_mode_space,
                       feynman_kernel_quadrature, log_evaluate, z_exponent)
from pseudodyn.qm_oracle import kernel_matrix_genfunc
from pseudodyn.sources import contract_v


@pytest.fixture
def ms():
    return build_mode_space(8, 2 * np.pi, 1.0)


def unit_random(space, seed):
    vec = ModeVector.random(space, np.random.default_rng(seed))
    return ModeVector(space, vec.values / np.linalg.norm(vec.values))


def dense(g):
    """Pair coefficients as the dense reference GaussianCoefficients."""
    a = np.zeros((len(g.a_pair),) * 2, dtype=complex)
    a[np.arange(len(g.a_pair)), g.negation] = g.a_pair
    return GaussianCoefficients(a, g.b, g.c)


def exponent(zx, u, v):
    """log Z on layer data (u, v), read through the Gaussian in u."""
    return log_evaluate(dense(contract_v(zx, v.values, v.space.negation)), u)


def test_zero_source_gives_unit_z(ms):
    zero = ModeVector.zeros(ms)
    zx = z_exponent(ms, 1.0)
    assert exponent(zx, zero, zero) == 0.0
    assert np.exp(exponent(zx, zero, zero)) == 1.0


def test_uu_coefficient_value(ms):
    zx = z_exponent(ms, 1.0)
    assert np.allclose(zx.uu, -1.0 / (4.0 * ms.frequencies), rtol=1e-14)


def test_uu_coefficient_against_quadrature_oracle(ms):
    # the same value derived from the regularized energy integral
    zx = z_exponent(ms, 1.0)
    k = ms.index_of(1)
    omega = ms.frequencies[k]
    oracle = -0.5j * feynman_kernel_quadrature(omega, 0.0, 1e-4, 1e3 * omega)
    assert abs(zx.uu[k] - oracle) / abs(oracle) < 2e-3


def test_cross_ratio_modulus_and_phase(ms):
    gap = 0.9
    zx = z_exponent(ms, gap)
    ratio = zx.uv / zx.uu
    assert np.allclose(np.abs(ratio), 1.0, rtol=1e-14)
    # the phase advances as e^{-i omega gap}; the fixed -1 in front is the
    # recorded kernel-sign convention
    assert np.allclose(ratio, -np.exp(-1j * ms.frequencies * gap), rtol=1e-14)


def test_cross_phase_evolution_law(ms):
    z0 = z_exponent(ms, 0.0)
    z1 = z_exponent(ms, 1.3)
    assert np.allclose(z1.uv / z0.uv, np.exp(-1j * ms.frequencies * 1.3),
                       rtol=1e-14)


def test_coincident_layers_collapse_to_single_layer(ms):
    u = unit_random(ms, 1)
    v = unit_random(ms, 2)
    zx = z_exponent(ms, 2.0, 2.0)
    merged = ModeVector(ms, u.values - v.values)
    zero = ModeVector.zeros(ms)
    assert exponent(zx, u, v) == pytest.approx(exponent(zx, merged, zero), rel=1e-12)


def test_t_order_validated(ms):
    with pytest.raises(ValueError):
        z_exponent(ms, 0.0, 1.0)


def test_source_scaling_is_quadratic(ms):
    u = unit_random(ms, 3)
    v = unit_random(ms, 4)
    tt = np.linspace(0.0, 1.5, 151)
    drive = np.outer(np.sin(tt), np.ones(ms.num_modes)) * 0.2
    zx = z_exponent(ms, 1.5, drive=drive)
    alpha = 1.7
    zx2 = z_exponent(ms, 1.5, drive=alpha * drive)
    ua, va = ModeVector(ms, alpha * u.values), ModeVector(ms, alpha * v.values)
    assert exponent(zx2, ua, va) == pytest.approx(alpha**2 * exponent(zx, u, v),
                                                  rel=1e-12)


def test_layer_exchange_symmetry(ms):
    u = unit_random(ms, 5)
    v = unit_random(ms, 6)
    zx = z_exponent(ms, 1.2)
    assert exponent(zx, u, v) == pytest.approx(exponent(zx, v, u), rel=1e-12)
    mu = ModeVector(ms, -u.values)
    mv = ModeVector(ms, -v.values)
    assert exponent(zx, mu, mv) == pytest.approx(exponent(zx, u, v), rel=1e-12)


def test_zero_drive_changes_nothing(ms):
    u = unit_random(ms, 7)
    v = unit_random(ms, 8)
    zb = z_exponent(ms, 2.0)
    zd = z_exponent(ms, 2.0, drive=np.zeros((21, ms.num_modes)))
    assert exponent(zb, u, v) == pytest.approx(exponent(zd, u, v), rel=1e-14)
    assert np.allclose(zd.lin_u, 0.0) and np.allclose(zd.lin_v, 0.0)
    assert zd.const == 0.0


def test_drive_shape_rejected(ms):
    # the samples define their own step over the window, so only the shape
    # (n >= 2, num_modes) can be wrong
    for drive in (np.zeros((1, ms.num_modes)),
                  np.zeros((11, ms.num_modes + 1)),
                  np.zeros(11)):
        with pytest.raises(ValueError, match="drive must have shape"):
            z_exponent(ms, 2.0, drive=drive)


def test_non_finite_drive_sample_rejected(ms):
    # exponent_coefficients refuses non-finite drive terms as it does uu, uv
    drive = np.ones((11, ms.num_modes))
    drive[4, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        z_exponent(ms, 2.0, drive=drive)


def test_delta_drive_integral_against_adaptive_quadrature(ms):
    # trapezoid drive integrals vs scipy adaptive quadrature of the same
    # kernel, at both layers, on a window from 0 and on one away from it
    k = ms.index_of(1)
    omega = ms.frequencies[k]

    def kernel_integral(t_star, t_initial, t_final):
        def integrand(t):
            return -0.5j / omega * np.exp(-1j * omega * abs(t_star - t)) * np.sin(t)
        return (integrate.quad(lambda t: integrand(t).real, t_initial, t_final)[0]
                + 1j * integrate.quad(lambda t: integrand(t).imag, t_initial, t_final)[0])

    for t_initial, t_final, n in ((0.0, 2.0, 2001), (10.0, 11.5, 1501)):
        tt = np.linspace(t_initial, t_final, n)
        drive = np.zeros((tt.size, ms.num_modes))
        drive[:, k] = np.sin(tt)
        zx = z_exponent(ms, t_final, t_initial, drive=drive)
        # lin_u[k'] pairs mode k' with the drive on -k'; sin lives on k = +1
        at_final = kernel_integral(t_final, t_initial, t_final)
        at_initial = kernel_integral(t_initial, t_initial, t_final)
        assert zx.lin_u[ms.index_of(-1)] == pytest.approx(2.0 * (-0.5j) * at_final,
                                                          rel=1e-6)
        assert zx.lin_v[ms.index_of(-1)] == pytest.approx(-2.0 * (-0.5j) * at_initial,
                                                          rel=1e-6)


def test_single_mode_matches_qm_genfunc_formula():
    # the k = 0 mode of a two-mode lattice is one oscillator; its exponent
    # must reproduce the scalar generating-functional kernel
    ms2 = build_mode_space(2, 2 * np.pi, 1.3)
    p, p0 = 0.8, -0.45
    t_final = 1.7
    tt = np.linspace(0.0, t_final, 1701)
    drive = np.zeros((tt.size, 2))
    drive[:, ms2.index_of(0)] = np.sin(2.0 * tt)
    u = ModeVector.basis(ms2, 0, p)
    v = ModeVector.basis(ms2, 0, p0)
    zx = z_exponent(ms2, t_final, drive=drive)
    expected = kernel_matrix_genfunc([p0], [p], ms2.mass, 1.0, 0.0, t_final,
                                     drive[:, ms2.index_of(0)].real)[0, 0]
    assert np.exp(exponent(zx, u, v)) == pytest.approx(expected, rel=1e-12)


def test_drive_drive_term_against_dense_double_sum(ms):
    rng = np.random.default_rng(17)
    n = 301
    # a window from 0, and one away from it
    for t_initial, t_final in ((0.0, 1.0), (10.0, 11.5)):
        tt = np.linspace(t_initial, t_final, n)
        drive = (rng.normal(size=(n, ms.num_modes))
                 + 1j * rng.normal(size=(n, ms.num_modes)))
        zx = z_exponent(ms, t_final, t_initial, drive=drive)
        w = np.full(n, tt[1] - tt[0])
        w[0] = w[-1] = 0.5 * (tt[1] - tt[0])
        dense = 0.0 + 0.0j
        for k in range(ms.num_modes):
            om = ms.frequencies[k]
            gmat = -0.5j / om * np.exp(-1j * om * np.abs(tt[:, None] - tt[None, :]))
            dense += (w * drive[:, k]) @ gmat @ (w * drive[:, ms.negation[k]])
        assert zx.const == pytest.approx(-0.5j * dense, rel=1e-12), (t_initial, t_final)


def test_contract_v_against_coefficient_layout(ms):
    # the contraction against the coefficient layout written out in full
    u = unit_random(ms, 21).values
    v = unit_random(ms, 22)
    tt = np.linspace(0.0, 0.8, 81)
    zx = z_exponent(ms, 0.8, drive=np.outer(np.cos(tt), np.ones(ms.num_modes)))
    neg = ms.negation
    w = v.values
    layout = (zx.uu * (u * u[neg] + w * w[neg]) + zx.uv * (u * w[neg] + w * u[neg])
              + zx.lin_u * u + zx.lin_v * w).sum() + zx.const
    assert log_evaluate(dense(contract_v(zx, w, neg)), u) == pytest.approx(layout, rel=1e-12)
