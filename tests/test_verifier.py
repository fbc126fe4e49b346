import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pseudodyn.verifier as verifier
from pseudodyn import (GaussianCoefficients, EvolutionState, ModeVector,
                       apply_first_order, apply_second_order,
                       build_mode_space, calibrate, evaluate,
                       evolution_functional, first_order_residual,
                       gradient_check, log_evaluate,
                       resolve_hamiltonian_signs, schrodinger_residual,
                       semigroup_check)
from pseudodyn.verifier import sample_mode_amplitudes


@pytest.fixture
def state():
    ms = build_mode_space(16, 2 * np.pi, 1.0)
    calib = calibrate(ms)
    vec = ModeVector.random(ms, np.random.default_rng(9))
    v = ModeVector(ms, vec.values / np.linalg.norm(vec.values))
    return evolution_functional(ms, v, 1.0, calibration=calib)


def perturbed(state, k_pos, delta):
    a = state.coeffs.a.copy()
    neg = state.space.negation
    a[k_pos, neg[k_pos]] += delta
    a[neg[k_pos], k_pos] = a[k_pos, neg[k_pos]]
    g = GaussianCoefficients(a, state.coeffs.b, state.coeffs.c)
    return EvolutionState(state.space, state.t, state.v_hat, g, state.calibration)


def test_first_order_passes_calibrated(state):
    report = first_order_residual(state)
    assert report.passed
    assert report.max_q2 < 1e-12
    assert report.max_q1 < 1e-12
    assert report.fd_residual < 1e-6
    assert report.params["achieved_c2"] == pytest.approx(1.0)


def test_first_order_linear_response_to_a_perturbation(state):
    k_pos = state.space.index_of(3)
    delta = 1e-3
    report = first_order_residual(perturbed(state, k_pos, delta))
    assert not report.passed
    omega = state.space.frequencies[k_pos]
    assert report.max_q2 == pytest.approx(2.0 * omega * delta, rel=1e-9)


def test_first_order_zero_layer_has_no_linear_residual(state):
    ms = state.space
    st0 = evolution_functional(ms, ModeVector.zeros(ms), 1.0,
                               calibration=state.calibration)
    report = first_order_residual(st0)
    assert report.max_q1 == 0.0
    assert report.passed


def test_first_order_detects_uncalibrated_state(state):
    ms = state.space
    raw = evolution_functional(ms, state.v_hat, 1.0)  # identity lambda
    report = first_order_residual(raw)
    assert not report.passed
    # the quadratic law then carries c2 = -1/2 instead of 1
    assert report.params["achieved_c2"] == pytest.approx(-0.5)


def test_hamiltonian_signs_resolve(state):
    assert resolve_hamiltonian_signs(state) == (-1, 1)


def test_schrodinger_passes_calibrated(state):
    report = schrodinger_residual(state)
    assert report.passed
    assert report.max_q2 < 1e-10
    assert report.max_q1 < 1e-10
    assert report.numeric_spread < 1e-9
    assert report.fd_residual < 1e-6


def test_schrodinger_constant_splits_into_trace_and_layer_parts(state):
    report = schrodinger_residual(state)
    q0 = report.q0
    b_part = report.params["q0_b_part"]
    trace = report.params["q0_trace"]
    assert abs(q0 + b_part + trace) <= 1e-12 * max(1.0, abs(q0))
    assert report.params["trace_identity_gap"] <= 1e-12 * max(1.0, abs(q0))


def test_trace_gap_catches_a_trace_off_by_one_mode(state, monkeypatch):
    # the trace part summed over every mode but the lightest one
    q0_parts = verifier._hamiltonian_q0_parts

    def short_trace(st, g):
        b_part, trace = q0_parts(st, g)
        k = int(np.argmin(st.space.frequencies))
        return b_part, trace - 2.0 * st.coeffs.a_pair[k] * g[k]

    monkeypatch.setattr(verifier, "_hamiltonian_q0_parts", short_trace)
    report = schrodinger_residual(state)
    assert report.params["trace_identity_gap"] > 1e-12 * max(1.0, abs(report.q0))


def test_schrodinger_passes_at_hbar_other_than_one():
    # H = hbar * H|_{hbar=1}: the calibrated state closes the form at any
    # hbar, and the trace part is the zero-point energy sum_k hbar omega_k / 2
    for hbar in (0.5, 2.0, 3.0):
        for n, mass, t in ((16, 1.0, 1.0), (64, 0.5, 10.0), (2, 2.0, 0.1)):
            ms = build_mode_space(n, 2 * np.pi, mass, hbar=hbar)
            vec = ModeVector.random(ms, np.random.default_rng(n))
            v = ModeVector(ms, vec.values / np.linalg.norm(vec.values))
            st = evolution_functional(ms, v, t, calibration=calibrate(ms))
            report = schrodinger_residual(st)
            assert report.passed, (hbar, n, mass, t, report.to_dict())
            assert (report.params["q_sign"], report.params["c_sign"]) == (-1, 1)
            trace = report.params["q0_trace"]
            assert report.params["trace_identity_gap"] <= 1e-12 * max(1.0, abs(trace))
            assert first_order_residual(st).passed


def test_schrodinger_q0_independent_of_sample_seed(state):
    r1 = schrodinger_residual(state, seed=1)
    r2 = schrodinger_residual(state, seed=2)
    assert r1.q0 == r2.q0
    assert max(r1.numeric_spread, r2.numeric_spread) < 1e-9


def test_schrodinger_fails_on_wrong_a(state):
    # breaking the a * omega = const law makes the residual u-dependent
    report = schrodinger_residual(perturbed(state, 2, 1e-3))
    assert not report.passed
    assert report.numeric_spread > 1e-5


def test_schrodinger_wrong_signs_fail(state, monkeypatch):
    monkeypatch.setattr(verifier, "resolve_hamiltonian_signs", lambda st: (1, -1))
    report = schrodinger_residual(state)
    assert not report.passed


def test_gradient_check_random_sets():
    rng = np.random.default_rng(123)
    for trial in range(4):
        n = 6
        a = rng.uniform(-0.5, 0.5, (n, n)) + 1j * rng.uniform(-0.5, 0.5, (n, n))
        b = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        g = GaussianCoefficients(a, b, 0.2j)
        assert gradient_check(g, u_samples=4, step=1e-5, seed=trial) < 1e-6


def test_gradient_check_linear_exponent_near_exact():
    g = GaussianCoefficients(np.zeros((4, 4)), np.array([1.0, -2.0, 0.5j, 0.0]), 0.0)
    assert gradient_check(g, u_samples=4, step=1e-5, seed=0) < 1e-9


def test_gradient_step_sweep_has_interior_minimum():
    rng = np.random.default_rng(7)
    a = rng.uniform(-0.5, 0.5, (6, 6)) + 1j * rng.uniform(-0.5, 0.5, (6, 6))
    b = rng.uniform(-1, 1, 6) + 0j
    g = GaussianCoefficients(a, b, 0.0)
    errs = [gradient_check(g, u_samples=6, step=s, seed=11)
            for s in (1e-3, 1e-5, 1e-7)]
    assert errs[1] < errs[0]
    assert errs[1] < errs[2]


def test_semigroup_single_and_random_partitions():
    ms = build_mode_space(12, 2 * np.pi, 0.7)
    calib = calibrate(ms)
    vec = ModeVector.random(ms, np.random.default_rng(5))
    v = ModeVector(ms, vec.values / np.linalg.norm(vec.values))
    assert semigroup_check(ms, v, [2.0], calibration=calib) < 1e-15
    assert semigroup_check(ms, v, [1.5, 1.5], calibration=calib) < 1e-13
    rng = np.random.default_rng(31)
    for _ in range(10):
        cuts = np.sort(rng.uniform(0.0, 3.0, 3))
        parts = np.diff(np.concatenate([[0.0], cuts, [3.0]]))
        assert semigroup_check(ms, v, parts, calibration=calib) < 1e-12


def test_semigroup_rejects_negative_parts():
    ms = build_mode_space(4, 1.0, 1.0)
    with pytest.raises(ValueError):
        semigroup_check(ms, ModeVector.zeros(ms), [1.0, -0.5])


def _scaled_layer(state, scale):
    ms = state.space
    v = ModeVector(ms, scale * state.v_hat.values)
    return evolution_functional(ms, v, state.t, calibration=state.calibration)


def test_verdicts_independent_of_layer_amplitude(state):
    # S is differenced directly, so the fd column carries only the stencil
    # error, however large the layer makes S(T + dt) - S(T)
    for scale in (0.25, 1.0, 300.0, 1e4):
        big = _scaled_layer(state, scale)
        for check in (first_order_residual, schrodinger_residual):
            report = check(big)
            assert report.passed, (scale, report.summary_line())
            assert not check(perturbed(big, 2, 1e-3)).passed, scale


def test_fd_residual_scales_quadratically_in_dt(state, monkeypatch):
    fd = []
    for phase in (2 * verifier._FD_PHASE_STEP, verifier._FD_PHASE_STEP):
        monkeypatch.setattr(verifier, "_FD_PHASE_STEP", phase)
        fd.append(first_order_residual(state, tol_numeric=1.0).fd_residual)
    assert fd[0] / fd[1] == pytest.approx(4.0, rel=0.3)


def test_report_json_round_trip(state):
    import json
    report = first_order_residual(state)
    payload = json.loads(report.to_json())
    assert payload["identity"] == "first_order_evolution"
    assert payload["verdict"] == "pass"
    assert payload["params"]["seed"] == 0


def _calibrated(n, mass, box, t, seed=99):
    ms = build_mode_space(n, box, mass)
    vec = ModeVector.random(ms, np.random.default_rng(seed))
    v = ModeVector(ms, vec.values / np.linalg.norm(vec.values))
    return evolution_functional(ms, v, t, calibration=calibrate(ms))


def _pairing(space, diag):
    m = np.zeros((space.num_modes,) * 2, dtype=complex)
    m[np.arange(space.num_modes), space.negation] = diag
    return m


def _assert_close(pair, dense, tol=1e-15):
    assert np.all(np.abs(pair - dense) <= tol * np.maximum(1.0, np.abs(dense)))


def _assert_pair_form_matches_dense(state):
    """Per-mode closed forms of the verifier against the dense reference."""
    ms = state.space
    dense = GaussianCoefficients(state.coeffs.a, state.coeffs.b, state.coeffs.c)
    w = ms.frequencies
    ref = apply_first_order(dense, w, shift=-_pairing(ms, np.ones(ms.num_modes)))
    q2, q1 = verifier._first_order_rhs(state)
    _assert_close(_pairing(ms, q2), ref.q2)
    _assert_close(q1, ref.q1)
    assert ref.q0 == 0.0
    for q_sign in (1, -1):
        for c_sign in (1, -1):
            q2, q1, g = verifier._hamiltonian(state, q_sign, c_sign)
            ref = apply_second_order(dense, _pairing(ms, g),
                                     _pairing(ms, np.full(ms.num_modes, 0.5 * q_sign)))
            _assert_close(_pairing(ms, q2), ref.q2)
            _assert_close(q1, ref.q1)
            _assert_close(sum(verifier._hamiltonian_q0_parts(state, g)), ref.q0)


def test_pair_form_matches_dense_algebra_on_acceptance_grid():
    for n in (2, 8, 16, 64):
        for mass in (0.5, 1.0, 2.0):
            for t in (0.1, 1.0, 10.0):
                _assert_pair_form_matches_dense(_calibrated(n, mass, 2 * np.pi, t))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 48).map(lambda h: 2 * h),
       mass=st.floats(0.05, 5.0), box=st.floats(0.5, 50.0),
       t=st.floats(0.0, 50.0), seed=st.integers(0, 2**16))
def test_pair_form_matches_dense_algebra_property(n, mass, box, t, seed):
    _assert_pair_form_matches_dense(_calibrated(n, mass, box, t, seed))


def test_default_fd_step_follows_lattice_at_n512():
    state = _calibrated(512, 1.0, 2 * np.pi, 1.0)
    for report in (first_order_residual(state), schrodinger_residual(state)):
        assert report.passed, report.summary_line()
        assert report.params["dt_step"] == 3e-4 / state.space.frequencies.max()


def test_identity_checks_pass_at_n65536():
    state = _calibrated(65536, 1.0, 2 * np.pi, 1.0, seed=1)
    assert first_order_residual(state).passed
    assert schrodinger_residual(state).passed


def test_fd_column_survives_exponent_overflow(state):
    # a 300x layer takes |Re S| of the sampled u to about 4500
    big = _scaled_layer(state, 300.0)
    us = sample_mode_amplitudes(state.space.num_modes, 16, 0)
    worst = max(us, key=lambda u: abs(log_evaluate(big.coeffs, u).real))
    with pytest.raises(OverflowError):
        evaluate(big.coeffs, worst)
    for check in (first_order_residual, schrodinger_residual):
        report = check(big)
        assert np.isfinite(report.fd_residual)
        assert report.passed, report.summary_line()


def test_one_sided_stencil_at_t_zero(state, monkeypatch):
    st0 = evolution_functional(state.space, state.v_hat, 0.0,
                               calibration=state.calibration)
    built = []

    def recording(space, v_hat, t, *args):
        built.append(t)
        return evolution_functional(space, v_hat, t, *args)

    monkeypatch.setattr(verifier, "evolution_functional", recording)
    for check in (first_order_residual, schrodinger_residual):
        built.clear()
        report = check(st0)
        assert report.passed, report.summary_line()
        dt = report.params["dt_step"]
        assert built == [dt, 2.0 * dt]
