import numpy as np
import pytest

from pseudodyn import (ModeVector, advance, build_mode_space, calibrate,
                       evolution_functional, first_order_residual, z_exponent)
from pseudodyn.sources import contract_v


@pytest.fixture
def ms():
    return build_mode_space(16, 2 * np.pi, 1.0)


def unit_random(space, seed):
    vec = ModeVector.random(space, np.random.default_rng(seed))
    return ModeVector(space, vec.values / np.linalg.norm(vec.values))


def test_raw_pairing_is_quarter_inverse_omega(ms):
    a_raw = z_exponent(ms, 0.0).uu
    assert np.allclose(a_raw * ms.frequencies, -0.25, rtol=1e-14)


def test_calibration_solves_lambda(ms):
    lam = calibrate(ms)
    # lambda^2 = -2 at h = 1, principal root i*sqrt(2)
    assert type(lam) is complex
    assert lam == pytest.approx(1j * np.sqrt(2.0))


def test_calibration_lambda_scales_with_hbar():
    ms2 = build_mode_space(8, 2 * np.pi, 1.0, hbar=3.0)
    assert calibrate(ms2) ** 2 == pytest.approx(-6.0)


def test_calibration_refuses_a_non_finite_lambda():
    # at h = 1e308 lambda^2 overflows; the NaN spread must not pass the gate
    ms_big = build_mode_space(16, 2 * np.pi, 1.0, hbar=1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="not finite"):
            calibrate(ms_big)


def test_forced_identity_lambda_records_gap(ms):
    # a forced lambda is a plain number, recorded as given; the gap itself,
    # c2 = -1/2, is what first_order_residual reports as achieved_c2
    # (test_verifier)
    st = evolution_functional(ms, unit_random(ms, 1), 1.0, calibration=1.0)
    assert st.calibration == 1.0
    params = first_order_residual(st).params
    assert (params["lambda_re"], params["lambda_im"]) == (1.0, 0.0)


def test_zero_initial_layer(ms):
    calib = calibrate(ms)
    st0 = evolution_functional(ms, ModeVector.zeros(ms), 0.3, calibration=calib)
    st1 = evolution_functional(ms, ModeVector.zeros(ms), 7.0, calibration=calib)
    assert np.allclose(st0.coeffs.b, 0.0)
    assert np.array_equal(st0.coeffs.a_pair, st1.coeffs.a_pair)
    assert st0.coeffs.c == st1.coeffs.c == 0.0


def test_t_zero_matches_direct_substitution(ms):
    v = unit_random(ms, 1)
    st = evolution_functional(ms, v, 0.0)
    zx = z_exponent(ms, 0.0)
    g = contract_v(zx, v.values, ms.negation)
    assert np.array_equal(st.coeffs.a_pair, g.a_pair)
    assert np.array_equal(st.coeffs.b, g.b)
    assert st.coeffs.c == g.c


def test_b_phase_law(ms):
    calib = calibrate(ms)
    v = ModeVector.basis(ms, 2, 1.0)
    st0 = evolution_functional(ms, v, 0.0, calibration=calib)
    t = 2.7
    st = evolution_functional(ms, v, t, calibration=calib)
    idx = np.flatnonzero(st0.coeffs.b)
    assert idx.size == 1  # basis layer excites the paired mode only
    ratio = st.coeffs.b[idx[0]] / st0.coeffs.b[idx[0]]
    omega = ms.frequencies[idx[0]]
    assert ratio == pytest.approx(np.exp(-1j * omega * t), rel=1e-14)


def test_a_pairing_support_and_constancy(ms):
    calib = calibrate(ms)
    st = evolution_functional(ms, unit_random(ms, 2), 1.0, calibration=calib)
    # A is carried as one a_k = A_{k,-k} per mode, on the lattice's pairing
    assert np.array_equal(st.coeffs.negation, ms.negation)
    pair = st.coeffs.a_pair
    assert np.allclose(2.0 * pair * ms.frequencies, 1.0, atol=1e-14)


def test_negative_time_rejected(ms):
    # refused by the window-order rule of the one exponent builder
    with pytest.raises(ValueError, match="must not exceed"):
        evolution_functional(ms, ModeVector.zeros(ms), -0.1)


@pytest.mark.parametrize("n", [2, 8, 16, 64])
@pytest.mark.parametrize("mass", [0.5, 1.0, 2.0])
def test_built_and_advanced_pairings_are_exactly_symmetric(n, mass):
    # the criterion-2 grid: a_k = a_{-k} bit for bit, with nothing
    # re-symmetrizing it, because omega_k = omega_{-k} exactly
    space = build_mode_space(n, 2 * np.pi, mass)
    calib = calibrate(space)
    v = unit_random(space, 99)
    for t in (0.1, 1.0, 10.0):
        st = evolution_functional(space, v, t, calibration=calib)
        for state in (st, advance(st, 0.37), advance(advance(st, 0.37), 1.1)):
            a = state.coeffs.a_pair
            assert np.array_equal(a, a[space.negation]), (n, mass, t)


def test_advance_shares_the_read_only_pairing(ms):
    st = evolution_functional(ms, unit_random(ms, 5), 1.0, calibrate(ms))
    stepped = advance(st, 0.25)
    assert stepped.coeffs.a_pair is st.coeffs.a_pair
    assert not stepped.coeffs.a_pair.flags.writeable
    assert not stepped.coeffs.b.flags.writeable


def test_advance_identity_and_phase(ms):
    calib = calibrate(ms)
    st = evolution_functional(ms, unit_random(ms, 3), 0.5, calibration=calib)
    same = advance(st, 0.0)
    assert np.array_equal(same.coeffs.b, st.coeffs.b)
    stepped = advance(st, 0.5)
    k = ms.index_of(0)  # omega = 1 mode
    factor = stepped.coeffs.b[k] / st.coeffs.b[k]
    assert factor == pytest.approx(np.cos(0.5) - 1j * np.sin(0.5), rel=1e-14)


def test_advance_composes_additively(ms):
    calib = calibrate(ms)
    st = evolution_functional(ms, unit_random(ms, 4), 0.0, calibration=calib)
    two_step = advance(advance(st, 0.75), 1.5)
    one_step = advance(st, 2.25)
    assert np.max(np.abs(two_step.coeffs.b - one_step.coeffs.b)) < 1e-15
    assert two_step.t == pytest.approx(one_step.t)


def test_advance_rejects_backward(ms):
    st = evolution_functional(ms, ModeVector.zeros(ms), 1.0)
    with pytest.raises(ValueError):
        advance(st, -0.5)


def test_advance_rejects_non_finite_dt(ms):
    st = evolution_functional(ms, unit_random(ms, 6), 1.0)
    for dt in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            advance(st, dt)


@pytest.mark.parametrize("n", [2, 8, 1024])
@pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("t", [0.0, 1.0, 1e5])
def test_build_is_the_rescaled_z_exponent_contraction(n, hbar, t):
    # the direct build equals the public log-Z reader read at lambda * u
    space = build_mode_space(n, 2 * np.pi, 1.0, hbar=hbar)
    lam = calibrate(space)
    v = unit_random(space, 7)
    got = evolution_functional(space, v, t, lam).coeffs
    ref = contract_v(z_exponent(space, t), v.values, space.negation)
    assert np.array_equal(got.a_pair, lam * lam * ref.a_pair)
    assert np.array_equal(got.b, lam * ref.b)
    assert got.c == ref.c


def test_build_refuses_non_finite_coefficients():
    # at h = 1e-320 the prefactor -i/(2h) overflows
    tiny = build_mode_space(4, 2 * np.pi, 1.0, hbar=1e-320)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            evolution_functional(tiny, ModeVector.zeros(tiny), 1.0)


def test_calibration_validation(ms):
    # lambda enters a state only here: zero and non-finite are refused
    for lam in (0.0, np.nan, np.inf, complex(1.0, np.nan), complex(-np.inf, 1.0)):
        with pytest.raises(ValueError, match="lambda must be finite and nonzero"):
            evolution_functional(ms, unit_random(ms, 1), 1.0, calibration=lam)
