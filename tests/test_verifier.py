import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pseudodyn.pseudodynamics as pseudodynamics
import pseudodyn.verifier as verifier
from pseudodyn.cli import RunConfig
from pseudodyn.reports import ResidualReport, sweep_csv_row
from pseudodyn import (GaussianCoefficients, EvolutionState, ModeVector,
                       PairCoefficients, apply_first_order, apply_second_order,
                       build_mode_space, calibrate, evaluate,
                       evolution_functional, first_order_residual,
                       gradient_check, log_evaluate,
                       resolve_hamiltonian_signs, schrodinger_residual,
                       semigroup_check)


@pytest.fixture
def state():
    ms = build_mode_space(16, 2 * np.pi, 1.0)
    calib = calibrate(ms)
    vec = ModeVector.random(ms, np.random.default_rng(9))
    v = ModeVector(ms, vec.values / np.linalg.norm(vec.values))
    return evolution_functional(ms, v, 1.0, calibration=calib)


def perturbed(state, k_pos, delta):
    """state with delta added to A_{k,-k} and A_{-k,k}, the pairing of k_pos."""
    g = state.coeffs
    a_pair = g.a_pair.copy()
    a_pair[[k_pos, g.negation[k_pos]]] += delta
    return EvolutionState(state.space, state.t, state.v_hat,
                          PairCoefficients(a_pair, g.b, g.c, g.negation),
                          state.calibration)


def u_draws(n_modes, n_samples, seed):
    """Complex u rows, Re and Im independently uniform in [-1, 1]."""
    rng = np.random.default_rng(seed)
    return (rng.uniform(-1.0, 1.0, (n_samples, n_modes))
            + 1j * rng.uniform(-1.0, 1.0, (n_samples, n_modes)))


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


def _closing_signs(table):
    """The "q,c" key of the smallest entry of a sign-residual table."""
    return min(table, key=table.get)


def test_hamiltonian_signs_resolve(state):
    assert _closing_signs(resolve_hamiltonian_signs(state)) == "-1,+1"


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
            assert _closing_signs(report.params["sign_residuals"]) == "-1,+1"
            trace = report.params["q0_trace"]
            assert report.params["trace_identity_gap"] <= 1e-12 * max(1.0, abs(trace))
            assert first_order_residual(st).passed


def _without_seed(report):
    record = report.to_dict()
    del record["params"]["seed"]
    return record


def test_schrodinger_q0_independent_of_sample_seed(state):
    r1 = schrodinger_residual(state, seed=1)
    r2 = schrodinger_residual(state, seed=2)
    assert (r1.params["seed"], r2.params["seed"]) == (1, 2)
    assert _without_seed(r1) == _without_seed(r2)


@pytest.mark.parametrize("t", [0.0, 1.0, 10.0])
def test_identity_reports_independent_of_seed(t):
    # no u is drawn: the seed only labels the report
    st = _calibrated(16, 0.5, 2 * np.pi, t, seed=3)
    for check in (first_order_residual, schrodinger_residual):
        for target in (st, perturbed(st, 2, 1e-3)):
            reports = [_without_seed(check(target, seed=seed)) for seed in (0, 7)]
            assert reports[0] == reports[1]


def _residual_at(state, us):
    """|(i h d/dT - H) Phi / Phi - Q0| at each row of us, from the pair form."""
    ms = state.space
    x, y, _ = verifier._hamiltonian(state)
    resid_q1 = ms.hbar * ms.frequencies * state.coeffs.b - y
    return np.abs((us * us[:, ms.negation]) @ -(x - 0.5 * ms.hbar) + us @ resid_q1)


def test_spread_bounds_every_sampled_residual(state):
    grid = [_calibrated(n, mass, 2 * np.pi, t)
            for n in (2, 8, 16, 64) for mass in (0.5, 1.0, 2.0)
            for t in (0.1, 1.0, 10.0)]
    for seed, st in enumerate(grid + [perturbed(state, 2, 1e-3)]):
        report = schrodinger_residual(st)
        us = u_draws(st.space.num_modes, 64, seed)
        sampled = _residual_at(st, us) / max(1.0, abs(report.q0))
        assert np.all(report.numeric_spread >= sampled), (seed, report.summary_line())


def test_schrodinger_fails_on_wrong_a(state):
    # breaking the a * omega = const law makes the residual u-dependent
    report = schrodinger_residual(perturbed(state, 2, 1e-3))
    assert not report.passed
    assert report.numeric_spread > 1e-5


def test_schrodinger_wrong_signs_fail(state):
    # the calibrated state closes the form at (-1, +1) alone: at each of the
    # other three sign pairs its residual exceeds the Schrodinger tolerance
    tol = RunConfig().tol_schrodinger
    table = schrodinger_residual(state).params["sign_residuals"]
    assert table["-1,+1"] < tol
    assert all(table[key] > tol for key in ("+1,+1", "+1,-1", "-1,-1")), table


def test_schrodinger_judges_the_flipped_lambda_at_the_fixed_signs():
    # lambda real instead of imaginary flips a_k to -1 / (2 omega_k): the pair
    # (+1, -1) has the smallest residual, but the first-order law fixes
    # (-1, +1), where h omega_k b_k - Q1_k = 2 h omega_k b_k
    ms = build_mode_space(16, 2 * np.pi, 1.0)
    vec = ModeVector.random(ms, np.random.default_rng(99))
    v = ModeVector(ms, vec.values / np.linalg.norm(vec.values))
    flipped = complex(np.sqrt(2.0))
    state = evolution_functional(ms, v, 1.0, calibration=flipped)
    report = schrodinger_residual(state)
    assert not report.passed
    assert _closing_signs(report.params["sign_residuals"]) == "+1,-1"
    assert report.max_q2 < 1e-10 < report.max_q1
    assert not first_order_residual(state).passed


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
    # error, however large the layer makes S(T + dt) - S(T); Q1 is judged
    # relative to |h omega b|, so rounding at 1e7 does not fail it either
    for scale in (0.25, 1.0, 300.0, 1e4, 1e7):
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


def test_sweep_csv_row_schema():
    # str for identity, num_modes, seed and verdict, repr(float) for the
    # rest, empty for a missing value; a missing q0 is written as nan + 0j
    report = ResidualReport(
        identity="first_order_evolution", max_q2=np.float64(1e-17), q0=0.5 - 2j,
        fd_residual=3e-9, verdict="fail",
        params={"num_modes": np.int64(8), "mass": 1, "box_length": 2.0,
                "hbar": 0.5, "t": 1.0, "lambda_re": 0.0, "lambda_im": 1.0,
                "seed": 42, "dt_step": 1e-4})
    assert sweep_csv_row(report) == ("first_order_evolution,8,1.0,2.0,0.5,1.0,"
                                     "0.0,1.0,42,1e-17,,0.5,-2.0,,3e-09,fail")
    bare = ResidualReport(identity="semigroup", numeric_spread=1e-13)
    assert sweep_csv_row(bare) == "semigroup,,,,,,,,,,,nan,0.0,1e-13,,pass"


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


def _dense(state):
    """The state's exponent as the dense reference GaussianCoefficients."""
    g = state.coeffs
    return GaussianCoefficients(_pairing(state.space, g.a_pair), g.b, g.c)


def _assert_pair_form_matches_dense(state):
    """Per-mode closed forms of the verifier against the dense reference."""
    ms = state.space
    dense = _dense(state)
    w = ms.frequencies
    ref = apply_first_order(dense, w, shift=-_pairing(ms, np.ones(ms.num_modes)))
    q2, q1 = verifier._first_order_rhs(state)
    _assert_close(_pairing(ms, q2), ref.q2)
    _assert_close(q1, ref.q1)
    assert ref.q0 == 0.0
    # every entry of the sign table against H Phi / Phi at its sign pair
    x, y, g = verifier._hamiltonian(state)
    lhs_q1 = ms.hbar * w * state.coeffs.b
    table = verifier.resolve_hamiltonian_signs(state)
    assert len(table) == 4
    for key, entry in table.items():
        q, c = (int(sign) for sign in key.split(","))
        ref = apply_second_order(dense, _pairing(ms, c * g),
                                 _pairing(ms, np.full(ms.num_modes, 0.5 * q * ms.hbar)))
        _assert_close(_pairing(ms, c * x + 0.5 * q * ms.hbar), ref.q2)
        _assert_close(c * y, ref.q1)
        _assert_close(sum(verifier._hamiltonian_q0_parts(state, c * g)), ref.q0)
        ref_entry = max(np.abs(ref.q2).max(), np.abs(lhs_q1 - ref.q1).max())
        _assert_close(np.array([entry]), ref_entry)


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
    us = u_draws(state.space.num_modes, 16, 0)
    dense = _dense(big)
    worst = max(us, key=lambda u: abs(log_evaluate(dense, u).real))
    with pytest.raises(OverflowError):
        evaluate(dense, worst)
    for check in (first_order_residual, schrodinger_residual):
        report = check(big)
        assert np.isfinite(report.fd_residual)
        assert report.passed, report.summary_line()


def test_one_sided_stencil_at_t_zero(state, monkeypatch):
    st0 = evolution_functional(state.space, state.v_hat, 0.0,
                               calibration=state.calibration)
    built = []
    build = verifier.evolution_functional

    def recording(space, v_hat, times, *args):
        built.append(list(times))
        return build(space, v_hat, times, *args)

    monkeypatch.setattr(verifier, "evolution_functional", recording)
    for check in (first_order_residual, schrodinger_residual):
        built.clear()
        report = check(st0)
        assert report.passed, report.summary_line()
        dt = report.params["dt_step"]
        assert built == [[0.0, dt, 2.0 * dt]]


@pytest.mark.parametrize("t, shift", [(0.0, 1e-9), (1e-6, 1e-9), (1.0, 1e-6)])
def test_fd_column_never_reads_the_state_constant(t, shift):
    # a constant added to S leaves both linear identities intact, so no
    # column may read the state's own c; below T = dt the one-sided stencil
    # weighs S(T) by -3, so there S(T) must come from a rebuild
    clean = _calibrated(16, 1.0, 2 * np.pi, t, seed=3)
    g = clean.coeffs
    shifted = EvolutionState(clean.space, clean.t, clean.v_hat,
                             PairCoefficients(g.a_pair, g.b, g.c + shift, g.negation),
                             clean.calibration)
    for check in (first_order_residual, schrodinger_residual):
        report = check(shifted)
        assert report.passed, (t, report.summary_line())
        assert report.fd_residual == check(clean).fd_residual


def _rate_fault(monkeypatch, eps):
    """Make verifier's state builder rotate b_k at omega_k (1 + eps_k): the
    state under test and its FD neighbours share the fault, which leaves
    every coefficient law but the phase rate intact.  Returns the build
    with the fault."""
    build = verifier.evolution_functional

    def faulty(space, v_hat, t, *args):
        out = []
        for st in build(space, v_hat, np.atleast_1d(t), *args):
            g = st.coeffs
            drift = np.exp(-1j * eps * space.frequencies * st.t)
            out.append(EvolutionState(
                space, st.t, st.v_hat,
                PairCoefficients(g.a_pair, g.b * drift, g.c, g.negation), st.calibration))
        return out if np.ndim(t) else out[0]

    monkeypatch.setattr(verifier, "evolution_functional", faulty)
    return faulty


def _only_fd_fails(state):
    """Both checks fail on the fd column alone."""
    schr = schrodinger_residual(state)
    for report in (first_order_residual(state), schr):
        tol = report.tolerances
        assert not report.passed, report.summary_line()
        assert max(report.max_q2, report.max_q1) < tol["coeff"], report.summary_line()
        assert report.fd_residual > tol["numeric"], report.summary_line()
    assert schr.numeric_spread < schr.tolerances["spread"]


@pytest.mark.parametrize("n", [16, 1024])
def test_fd_column_catches_a_uniform_phase_rate_error(monkeypatch, n):
    clean = _calibrated(n, 1.0, 2 * np.pi, 1.0)
    faulty = _rate_fault(monkeypatch, 1e-5)
    _only_fd_fails(faulty(clean.space, clean.v_hat, clean.t, clean.calibration))


def test_fd_column_catches_a_one_mode_phase_rate_error(monkeypatch):
    clean = _calibrated(1024, 1.0, 2 * np.pi, 1.0)
    eps = np.zeros(clean.space.num_modes)
    eps[np.argmax(np.abs(clean.space.frequencies * clean.coeffs.b))] = 1e-3
    faulty = _rate_fault(monkeypatch, eps)
    _only_fd_fails(faulty(clean.space, clean.v_hat, clean.t, clean.calibration))


@pytest.mark.parametrize("check", [first_order_residual, schrodinger_residual])
def test_identity_check_memory_stays_linear_at_n65536(check):
    state = _calibrated(65536, 1.0, 2 * np.pi, 1.0, seed=1)
    tracemalloc.start()
    try:
        check(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * state.space.num_modes * 16, peak


def _count_exponents(monkeypatch):
    calls = []
    build = pseudodynamics.exponent_coefficients

    def counting(*args, **kwargs):
        calls.append(args[4])
        return build(*args, **kwargs)

    monkeypatch.setattr(pseudodynamics, "exponent_coefficients", counting)
    return calls


@pytest.mark.parametrize("t", [0.0, 1.0])
def test_one_exponent_evaluation_per_fd_column_and_semigroup(state, monkeypatch, t):
    st = evolution_functional(state.space, state.v_hat, t, state.calibration)
    calls = _count_exponents(monkeypatch)
    for check in (first_order_residual, schrodinger_residual):
        calls.clear()
        check(st)
        assert len(calls) == 1
    calls.clear()
    semigroup_check(st.space, st.v_hat, [0.5, 0.25, 1.0], st.calibration)
    assert len(calls) == 1
    assert list(calls[0]) == [0.0, 1.75]


@pytest.mark.parametrize("hbar", [1.0, 1e-8])
def test_semigroup_catches_a_phase_rate_error_at_small_hbar(monkeypatch, hbar):
    ms = build_mode_space(16, 2 * np.pi, 1.0, hbar=hbar)
    calib = calibrate(ms)
    v = ModeVector(ms, np.full(16, 0.25))
    parts = [0.5, 1.0, 1.5]
    assert semigroup_check(ms, v, parts, calib) < 1e-12

    def drifting(st, dt):
        g = st.coeffs
        b = np.exp(-1j * st.space.frequencies * (1.0 + 1e-9) * dt) * g.b
        return EvolutionState(st.space, st.t + dt, st.v_hat,
                              PairCoefficients(g.a_pair, b, g.c, g.negation),
                              st.calibration)

    monkeypatch.setattr(verifier, "advance", drifting)
    assert semigroup_check(ms, v, parts, calib) > 1e-12


@pytest.mark.parametrize("hbar", [1e-30, 1e-8, 1.0, 1e6])
def test_schrodinger_verdict_matches_first_order_at_any_hbar(monkeypatch, hbar):
    # every Schrodinger residual scales with hbar, so judged in units of hbar
    # it agrees with the first-order check on a clean state, a pairing off
    # by 1 %, and b turning at omega_k (1 + eps)
    ms = build_mode_space(16, 2 * np.pi, 1.0, hbar=hbar)
    calib = calibrate(ms)
    vec = ModeVector.random(ms, np.random.default_rng(9))
    v = ModeVector(ms, vec.values / np.linalg.norm(vec.values))
    clean = evolution_functional(ms, v, 1.0, calib)
    g = clean.coeffs
    wide = clean._replace(coeffs=PairCoefficients(1.01 * g.a_pair, g.b, g.c, g.negation))

    def verdicts(st):
        return first_order_residual(st).passed, schrodinger_residual(st).passed

    assert verdicts(clean) == (True, True)
    assert verdicts(wide) == (False, False)
    for eps in (1e-5, 1e-3):
        with monkeypatch.context() as patch:
            faulty = _rate_fault(patch, eps)
            first, schr = verdicts(faulty(ms, v, 1.0, calib))
        assert first == schr, (eps, first, schr)
