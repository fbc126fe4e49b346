"""Residual checks for the two evolution identities, plus cross-validation.

Both identities are judged at the coefficient level first (exact algebra on
the Gaussian exponent) and spot-checked numerically second:

* first-order: i dPhi/dT = sum_k u_k (omega_k d/du_k - u_{-k}) Phi must hold
  exactly after calibration; every residual coefficient is judged.
* Schrodinger form: (i h d/dT - H) Phi / Phi with the mode-space Hamiltonian
  H = h sum_k [ q_sign/2 u_k u_{-k} + c_sign/2 omega_k^2 d^2/(du_k du_{-k}) ],
  that is H = h * H|_{h=1}, must be independent of u; the surviving constant
  is reported as a function of T, never judged (it is minus the layer part
  minus the zero-point energy: normal ordering plus the free normalization
  of the initial-layer factor).

The Hamiltonian pairing signs depend on an unstated spatial transform
convention, so both are tried and the passing pair recorded.

States carry A in pair form (a_k = A_{k,-k}, see gaussian.PairCoefficients),
so both identities are per-mode closed forms and no check builds an N x N
array.  The residual polynomials are supported on the pairings, Q2 as
Q2_k u_k u_{-k}.  First order: Q2_k = 1 - 2 omega_k a_k and Q1 = 0.  With
g_k = c_sign h omega_k^2 / 2, H Phi / Phi has

    Q2_k = 4 a_k^2 g_k + q_sign h/2,   Q1_k = 4 a_k g_k b_k,
    Q0 = sum_k b_k g_k b_{-k} + sum_k 2 a_k g_k.

The dense operators gaussian.apply_first_order / apply_second_order give the
same polynomials and are the reference the tests compare against.

The finite-difference column re-derives i dPhi/dT / Phi = i dS/dT from
neighbours rebuilt from the kernel, differencing S(T +/- dt) - S(T)
coefficient by coefficient.  Nothing is exponentiated, so a large |Re S|
cannot overflow and the error is the stencil's (omega dt)^2 / 6 however
large the layer.  The step is always 3e-4 / omega_max, following the
lattice cutoff.  Below T = dt, where T - dt has no source construction, a
one-sided second-order stencil on T, T + dt, T + 2 dt replaces the central
one.
"""

from __future__ import annotations

import numpy as np

from .gaussian import GaussianCoefficients, evaluate, gradient_at
from .modespace import ModeSpace, ModeVector
from .pseudodynamics import EvolutionState, advance, evolution_functional
from .reports import ResidualReport

__all__ = ["first_order_residual", "schrodinger_residual",
           "resolve_hamiltonian_signs", "gradient_check", "semigroup_check",
           "sample_mode_amplitudes"]

_FD_FLOOR = 1e-300
# the FD step is this phase over the highest lattice frequency
_FD_PHASE_STEP = 3e-4
# numeric u samples per identity check
_U_SAMPLES = 16


def sample_mode_amplitudes(n_modes: int, n_samples: int, seed: int = 0) -> np.ndarray:
    """Complex samples, Re and Im independently uniform in [-1, 1]."""
    rng = np.random.default_rng(seed)
    return (rng.uniform(-1.0, 1.0, (n_samples, n_modes))
            + 1j * rng.uniform(-1.0, 1.0, (n_samples, n_modes)))


def _pair_values(q2: np.ndarray, q1: np.ndarray, us: np.ndarray,
                 uu: np.ndarray) -> np.ndarray:
    """sum_k q2_k u_k u_{-k} + q1.u for each sample row u of us.

    uu holds the pair products u_k u_{-k} of the same rows.
    """
    return uu @ q2 + us @ q1


def _fd_log_derivative(state: EvolutionState, us: np.ndarray,
                       uu: np.ndarray, dt: float) -> np.ndarray:
    """dS/dT = (dPhi/dT) / Phi at each sample, by finite differences of S.

    Every neighbour is rebuilt from the kernel, so the derivative is
    independent of the phase law under test.
    """
    g = state.coeffs

    def rise(step):
        """S(T + step, u) - S(T, u)."""
        n = evolution_functional(state.space, state.v_hat, state.t + step,
                                 state.calibration).coeffs
        return _pair_values(n.a_pair - g.a_pair, n.b - g.b, us, uu) + (n.c - g.c)

    if state.t >= dt:
        return (rise(dt) - rise(-dt)) / (2.0 * dt)
    return (4.0 * rise(dt) - rise(2.0 * dt)) / (2.0 * dt)


def _fd_residual(fd_ratio: np.ndarray, target: np.ndarray) -> float:
    """Worst |fd/Phi - target| / max(1, |target|) over the samples."""
    return float(np.max(np.abs(fd_ratio - target)
                        / np.maximum(1.0, np.abs(target))))


def _fd_samples(ms: ModeSpace, seed: int):
    """The u samples with their pair products, and the FD step."""
    us = sample_mode_amplitudes(ms.num_modes, _U_SAMPLES, seed)
    return us, us * us[:, ms.negation], _FD_PHASE_STEP / float(ms.frequencies.max())


def _base_params(state: EvolutionState, seed: int) -> dict:
    ms = state.space
    lam = complex(state.calibration.lambda_)
    return {
        "num_modes": ms.num_modes, "mass": ms.mass, "box_length": ms.box_length,
        "hbar": ms.hbar, "t": state.t,
        "lambda_re": lam.real, "lambda_im": lam.imag, "seed": seed,
    }


def _first_order_rhs(state: EvolutionState) -> tuple[np.ndarray, np.ndarray]:
    """Pair-form (Q2, Q1) of sum_k u_k (omega_k d/du_k - u_{-k}) Phi / Phi."""
    w = state.space.frequencies
    return 2.0 * w * state.coeffs.a_pair - 1.0, w * state.coeffs.b


def first_order_residual(state: EvolutionState, tol_coeff: float = 1e-12,
                         tol_numeric: float = 1e-6, seed: int = 0) -> ResidualReport:
    """Residual of i dPhi/dT = sum_k u_k (omega_k d/du_k - u_{-k}) Phi.

    The time derivative on the left is taken analytically from the exact
    coefficient laws (dA/dT = 0, i db_k/dT = omega_k b_k, dc/dT = 0), whose
    Q1 = omega b cancels the right side's exactly; the finite-difference
    column then independently checks those laws against freshly built
    neighbours, differencing S at the step 3e-4 / omega_max (recorded as
    params["dt_step"]) on params["u_samples"] samples drawn from seed.
    """
    ms = state.space
    rhs_q2, rhs_q1 = _first_order_rhs(state)
    max_q2 = float(np.max(np.abs(rhs_q2)))

    us, uu, dt = _fd_samples(ms, seed)
    fd_max = _fd_residual(1j * _fd_log_derivative(state, us, uu, dt),
                          _pair_values(rhs_q2, rhs_q1, us, uu))

    params = _base_params(state, seed)
    params.update({
        "dt_step": dt, "u_samples": _U_SAMPLES,
        "achieved_c2": complex((2.0 * ms.frequencies * state.coeffs.a_pair).mean()),
    })
    ok = max_q2 < tol_coeff and fd_max < tol_numeric
    return ResidualReport(
        identity="first_order_evolution",
        max_q2=max_q2, max_q1=0.0, q0=0j,
        fd_residual=fd_max,
        params=params,
        tolerances={"coeff": tol_coeff, "numeric": tol_numeric},
        verdict="pass" if ok else "fail",
    )


def _hamiltonian(state: EvolutionState, q_sign: int, c_sign: int):
    """Pair-form (Q2, Q1, g) of H Phi / Phi, g_k the curvature coefficient."""
    ms = state.space
    w = ms.frequencies
    h = ms.hbar
    g = 0.5 * c_sign * h * w * w
    a2 = 2.0 * state.coeffs.a_pair
    return a2 * g * a2 + 0.5 * q_sign * h, 2.0 * (a2 * (g * state.coeffs.b)), g


def _hamiltonian_q0_parts(state: EvolutionState, g: np.ndarray) -> tuple[complex, complex]:
    """The b-layer part sum_k b_k g_k b_{-k} and the trace part sum_k 2 a_k g_k
    of the constant of H Phi / Phi."""
    b = state.coeffs.b
    return (complex(np.sum(b * g * b[state.space.negation])),
            complex(np.sum(2.0 * state.coeffs.a_pair * g)))


def resolve_hamiltonian_signs(state: EvolutionState) -> tuple[int, int]:
    """Pick the pairing signs that zero the judged Schrodinger residuals."""
    ms = state.space
    lhs_q1 = ms.hbar * ms.frequencies * state.coeffs.b
    best, best_resid = (1, -1), np.inf
    for q_sign in (1, -1):
        for c_sign in (1, -1):
            h_q2, h_q1, _ = _hamiltonian(state, q_sign, c_sign)
            m = max(np.max(np.abs(h_q2)), np.max(np.abs(lhs_q1 - h_q1)))
            if m < best_resid:
                best, best_resid = (q_sign, c_sign), m
    return best


def schrodinger_residual(state: EvolutionState, tol_coeff: float = 1e-10,
                         tol_spread: float = 1e-9, tol_numeric: float = 1e-6,
                         seed: int = 0) -> ResidualReport:
    """Residual of the normally ordered Schrodinger form, up to a T function.

    Q2 and Q1 of (i h d/dT - H) Phi / Phi are judged, with the pairing signs
    that resolve_hamiltonian_signs picks; the constant Q0 is reported as the
    recovered T function.  The numeric spread column checks u-independence
    of the sampled residual; the fd column re-derives the time derivative
    by differencing S at the step 3e-4 / omega_max (recorded as
    params["dt_step"]).  H = h * H|_{h=1}, so with the first-order
    calibration (a_k = 1 / (2 omega_k) at every h) the form closes at any
    hbar.  The trace part of Q0 is compared with c_sign times
    the zero-point energy sum_k h omega_k / 2, taken from the frequencies
    alone, and the gap is reported as params["trace_identity_gap"].
    """
    ms = state.space
    h = ms.hbar
    q_sign, c_sign = resolve_hamiltonian_signs(state)
    h_q2, h_q1, g = _hamiltonian(state, q_sign, c_sign)
    resid_q1 = h * ms.frequencies * state.coeffs.b - h_q1
    max_q2 = float(np.max(np.abs(h_q2)))
    max_q1 = float(np.max(np.abs(resid_q1)))

    # normal-ordering split of the constant: Q0 = -(b^T C b + tr(2A C)); the
    # trace part is judged against the zero-point energy sum_k h omega_k / 2
    q0_b_part, q0_trace = _hamiltonian_q0_parts(state, g)
    resid_q0 = -(q0_b_part + q0_trace)
    trace_gap = abs(q0_trace - c_sign * 0.5 * h * float(np.sum(ms.frequencies)))

    us, uu, dt = _fd_samples(ms, seed)
    spread = (float(np.max(np.abs(_pair_values(-h_q2, resid_q1, us, uu))))
              / max(1.0, abs(resid_q0)))
    fd_max = _fd_residual(1j * h * _fd_log_derivative(state, us, uu, dt),
                          _pair_values(h_q2, h_q1, us, uu))

    params = _base_params(state, seed)
    params.update({
        "dt_step": dt, "u_samples": _U_SAMPLES,
        "q_sign": q_sign, "c_sign": c_sign,
        "q0_b_part": q0_b_part, "q0_trace": q0_trace,
        "trace_identity_gap": trace_gap,
    })
    ok = (max_q2 < tol_coeff and max_q1 < tol_coeff
          and spread < tol_spread and fd_max < tol_numeric)
    return ResidualReport(
        identity="schrodinger_normal_ordered",
        max_q2=max_q2, max_q1=max_q1, q0=resid_q0,
        numeric_spread=spread, fd_residual=fd_max,
        params=params,
        tolerances={"coeff": tol_coeff, "spread": tol_spread,
                    "numeric": tol_numeric},
        verdict="pass" if ok else "fail",
    )


def gradient_check(g: GaussianCoefficients, u_samples: int = 16,
                   step: float = 1e-5, seed: int = 0) -> float:
    """Max relative error of analytic mode derivatives vs central differences."""
    n = g.dim
    us = sample_mode_amplitudes(n, u_samples, seed)
    worst = 0.0
    for u in us:
        analytic = gradient_at(g, u)
        ref = np.max(np.abs(analytic))
        fd = np.empty(n, dtype=complex)
        for k in range(n):
            e = np.zeros(n, dtype=complex)
            e[k] = step
            fd[k] = (evaluate(g, u + e) - evaluate(g, u - e)) / (2.0 * step)
        denom = np.maximum(np.abs(analytic), max(1e-8 * ref, _FD_FLOOR))
        worst = max(worst, float(np.max(np.abs(fd - analytic) / denom)))
    return worst


def semigroup_check(space: ModeSpace, v_hat: ModeVector, partition,
                    calibration=None) -> float:
    """Max coefficient deviation between stepwise advance and direct build."""
    parts = [float(p) for p in partition]
    if any(p < 0 for p in parts):
        raise ValueError("partition parts must be nonnegative")
    total = sum(parts)
    state = evolution_functional(space, v_hat, 0.0, calibration)
    for p in parts:
        state = advance(state, p)
    direct = evolution_functional(space, v_hat, total, calibration)
    dev_a = np.max(np.abs(state.coeffs.a_pair - direct.coeffs.a_pair))
    dev_b = np.max(np.abs(state.coeffs.b - direct.coeffs.b))
    dev_c = abs(state.coeffs.c - direct.coeffs.c)
    return float(max(dev_a, dev_b, dev_c))
