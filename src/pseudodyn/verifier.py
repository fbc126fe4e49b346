"""Residual checks for the two evolution identities, plus cross-validation.

Both identities are judged at the coefficient level first (exact algebra on
the Gaussian exponent) and cross-checked numerically second, with no u
sampled, so a report does not depend on the seed it records:

* first-order: i dPhi/dT = sum_k u_k (omega_k d/du_k - u_{-k}) Phi must hold
  exactly after calibration; every residual coefficient is judged.
* Schrodinger form: (i h d/dT - H) Phi / Phi with the mode-space Hamiltonian
  H = h sum_k [ q/2 u_k u_{-k} + c/2 omega_k^2 d^2/(du_k du_{-k}) ],
  (q, c) = (-1, +1), that is H = h * H|_{h=1}, must be independent of u;
  the surviving constant is reported as a function of T, never judged (it
  is minus the layer part minus the zero-point energy: normal ordering plus
  the free normalization of the initial-layer factor).

States carry A in pair form (a_k = A_{k,-k}, see gaussian.PairCoefficients),
so both identities are per-mode closed forms and no check builds an N x N
array.  First order: Q2_k = 1 - 2 omega_k a_k and Q1 = 0.  With
g_k = h omega_k^2 / 2, X_k = 4 a_k^2 g_k and Y_k = 4 a_k g_k b_k, H Phi / Phi
at the signs (q, c) has Q2_k = c X_k + q h/2, Q1_k = c Y_k and
Q0 = c (sum_k b_k g_k b_{-k} + sum_k 2 a_k g_k).  At the first-order
calibration a_k = 1 / (2 omega_k) the judged residuals are (c + q) h/2 and
h omega_k b_k (1 - c), so only (-1, +1) closes both; the residuals of all
four pairs follow from X and Y alone (one table, _sign_table).  The dense
gaussian operators give the same polynomials and are the tests' reference.

The finite-difference column re-derives i dS/dT coefficient by coefficient
from neighbours rebuilt from the kernel, all in one multi-time call of
pseudodynamics.evolution_functional, at the step 3e-4 / omega_max.  Nothing is
exponentiated, so a large |Re S| cannot overflow.  Below T = dt a one-sided
stencil on T, T + dt, T + 2 dt replaces the central one, with its T point
rebuilt too, so the state under test enters only through its target
(Q2, Q1, 0) and a constant added to S is never judged.  The column is
||i h (da, db, dc)/dT - (Q2, Q1, 0)||_2 / max(h, ||(Q2, Q1, 0)||_2), h = 1 in
the first-order law; every Schrodinger column is in units of h.  The spread
column is the residual's exact bound over the box |Re u_k|, |Im u_k| <= 1.

compare_kernels judges the one-mode kernel identity of qm_oracle: the
solver's kernel matrix against the generating functional's, up to one
constant.
"""

from __future__ import annotations

import numpy as np

from .gaussian import GaussianCoefficients, evaluate, gradient_at
from .modespace import ModeSpace, ModeVector
from .pseudodynamics import EvolutionState, _check_step, advance, evolution_functional
from .reports import ResidualReport

__all__ = ["first_order_residual", "schrodinger_residual",
           "resolve_hamiltonian_signs", "gradient_check", "semigroup_check",
           "compare_kernels"]

_FD_FLOOR = 1e-300
_KERNEL_FLOOR = 1e-8
# the FD step is this phase over the highest lattice frequency
_FD_PHASE_STEP = 3e-4


def _fd_column(state: EvolutionState, scale: float, q2: np.ndarray,
               q1: np.ndarray) -> tuple[float, float]:
    """||i scale dS/dT - (q2, q1, 0)||_2 / max(scale, ||(q2, q1, 0)||_2) over
    the coefficient rates, and the step; scale is 1 for the first-order law
    and hbar for the Schrodinger form.  dS/dT is differenced from neighbours
    rebuilt from the kernel, so it is independent of the phase law under test.
    """
    dt = _FD_PHASE_STEP / float(state.space.frequencies.max())
    central = state.t >= dt
    # the one-sided stencil weighs S(T) by -3, so its S(T) is rebuilt too
    steps = (dt, -dt) if central else (0.0, dt, 2.0 * dt)
    g, near, far = [state.coeffs] * central + [n.coeffs for n in evolution_functional(
        state.space, state.v_hat, [state.t + s for s in steps], state.calibration)]
    # S(T + step) - S(T), coefficient by coefficient
    near, far = (np.concatenate([n.a_pair - g.a_pair, n.b - g.b, [n.c - g.c]])
                 for n in (near, far))
    rates = (near - far if central else 4.0 * near - far) / (2.0 * dt)
    target = np.concatenate([q2, q1, [0.0]])
    return float(np.linalg.norm(1j * scale * rates - target)
                 / max(scale, np.linalg.norm(target))), dt


def _base_params(state: EvolutionState, seed: int) -> dict:
    lam = complex(state.calibration)
    return {**state.space.to_config(), "t": state.t,
            "lambda_re": lam.real, "lambda_im": lam.imag, "seed": seed}


def _first_order_rhs(state: EvolutionState) -> tuple[np.ndarray, np.ndarray]:
    """Pair-form (Q2, Q1) of sum_k u_k (omega_k d/du_k - u_{-k}) Phi / Phi."""
    w = state.space.frequencies
    return 2.0 * w * state.coeffs.a_pair - 1.0, w * state.coeffs.b


def first_order_residual(state: EvolutionState, tol_coeff: float = 1e-12,
                         tol_numeric: float = 1e-6, seed: int = 0) -> ResidualReport:
    """Residual of i dPhi/dT = sum_k u_k (omega_k d/du_k - u_{-k}) Phi.

    The left side comes from the exact coefficient laws (dA/dT = 0,
    i db_k/dT = omega_k b_k, dc/dT = 0), so Q1 cancels exactly; the fd
    column checks those laws against rebuilt neighbours at the step
    params["dt_step"].  No u is sampled: seed only labels the report.
    """
    ms = state.space
    rhs_q2, rhs_q1 = _first_order_rhs(state)
    max_q2 = float(np.max(np.abs(rhs_q2)))

    fd, dt = _fd_column(state, 1.0, rhs_q2, rhs_q1)

    params = _base_params(state, seed)
    params.update({
        "dt_step": dt,
        "achieved_c2": complex((2.0 * ms.frequencies * state.coeffs.a_pair).mean()),
    })
    ok = max_q2 < tol_coeff and fd < tol_numeric
    return ResidualReport(
        identity="first_order_evolution",
        max_q2=max_q2, max_q1=0.0, q0=0j,
        fd_residual=fd,
        params=params,
        tolerances={"coeff": tol_coeff, "numeric": tol_numeric},
        verdict="pass" if ok else "fail",
    )


def _hamiltonian(state: EvolutionState):
    """Per-mode (X, Y, g) of H Phi / Phi, g_k = h omega_k^2 / 2 the curvature
    coefficient: at the signs (q, c), Q2 = c X + q h/2 and Q1 = c Y."""
    ms = state.space
    w = ms.frequencies
    g = 0.5 * ms.hbar * w * w
    a2 = 2.0 * state.coeffs.a_pair
    return a2 * g * a2, 2.0 * (a2 * (g * state.coeffs.b)), g


def _hamiltonian_q0_parts(state: EvolutionState, g: np.ndarray) -> tuple[complex, complex]:
    """The b-layer part sum_k b_k g_k b_{-k} and the trace part sum_k 2 a_k g_k
    of the constant of H Phi / Phi."""
    b = state.coeffs.b
    return (complex(np.sum(b * g * b[state.space.negation])),
            complex(np.sum(2.0 * state.coeffs.a_pair * g)))


def _sign_table(h, x, y, lhs_q1) -> dict:
    """The residual at each sign pair (q, c), keyed "q,c": the larger of
    max_k |c X_k + q h/2| and max_k |h omega_k b_k - c Y_k| (lhs_q1)."""
    return {f"{q:+d},{c:+d}": float(max(np.max(np.abs(c * x + 0.5 * q * h)),
                                         np.max(np.abs(lhs_q1 - c * y))))
            for q in (1, -1) for c in (1, -1)}


def resolve_hamiltonian_signs(state: EvolutionState) -> dict[str, float]:
    """The Schrodinger residual of this state at each pairing sign pair (q, c),
    keyed "q,c" (such as "-1,+1").  A diagnostic: the verdict is judged at
    (-1, +1), and the table gives its margin over the other three pairs."""
    h = state.space.hbar
    x, y, _ = _hamiltonian(state)
    return _sign_table(h, x, y, h * state.space.frequencies * state.coeffs.b)


def schrodinger_residual(state: EvolutionState, tol_coeff: float = 1e-10,
                         tol_spread: float = 1e-9, tol_numeric: float = 1e-6,
                         seed: int = 0) -> ResidualReport:
    """Residual of the normally ordered Schrodinger form, up to a T function.

    Q2 and Q1 of (i h d/dT - H) Phi / Phi are judged at the signs (-1, +1) in
    units of h; the residual at all four sign pairs is params["sign_residuals"].
    Q0 is reported as the recovered T function; max_q2 is max_k |Q2_k| / h and
    max_q1 is relative to max(h, |h omega_k b_k|) mode by mode.  The spread
    column is sum_k (2 |Q2_k| + sqrt(2) |Q1_k|) / max(h, |Q0|); the fd column
    compares i h dS/dT, differenced at params["dt_step"], with H Phi / Phi
    without its constant, over max(h, ||(Q2, Q1, 0)||_2).  No u is sampled:
    seed only labels the report.  The trace part of Q0 is compared with the
    zero-point energy sum_k h omega_k / 2, the gap in params["trace_identity_gap"].
    """
    ms = state.space
    h = ms.hbar
    x, h_q1, g = _hamiltonian(state)
    h_q2 = x - 0.5 * h   # the judged signs (q, c) = (-1, +1)
    fd, dt = _fd_column(state, h, h_q2, h_q1)
    lhs_q1 = h * ms.frequencies * state.coeffs.b
    resid_q1 = lhs_q1 - h_q1
    abs_q2, abs_q1 = np.abs(h_q2), np.abs(resid_q1)
    max_q2 = float(abs_q2.max()) / h
    max_q1 = float((abs_q1 / np.maximum(h, np.abs(lhs_q1))).max())

    # normal-ordering split of the constant: Q0 = -(b^T C b + tr(2A C)); the
    # trace part is judged against the zero-point energy sum_k h omega_k / 2
    q0_b_part, q0_trace = _hamiltonian_q0_parts(state, g)
    resid_q0 = -(q0_b_part + q0_trace)
    trace_gap = abs(q0_trace - 0.5 * h * float(np.sum(ms.frequencies)))

    spread = (float(2.0 * abs_q2.sum() + np.sqrt(2.0) * abs_q1.sum())
              / max(h, abs(resid_q0)))

    params = _base_params(state, seed)
    params.update({
        "dt_step": dt,
        "sign_residuals": _sign_table(h, x, h_q1, lhs_q1),
        "q0_b_part": q0_b_part, "q0_trace": q0_trace,
        "trace_identity_gap": trace_gap,
    })
    ok = (max_q2 < tol_coeff and max_q1 < tol_coeff
          and spread < tol_spread and fd < tol_numeric)
    return ResidualReport(
        identity="schrodinger_normal_ordered",
        max_q2=max_q2, max_q1=max_q1, q0=resid_q0,
        numeric_spread=spread, fd_residual=fd,
        params=params,
        tolerances={"coeff": tol_coeff, "spread": tol_spread,
                    "numeric": tol_numeric},
        verdict="pass" if ok else "fail",
    )


def gradient_check(g: GaussianCoefficients, u_samples: int = 16,
                   step: float = 1e-5, seed: int = 0) -> float:
    """Max relative error of analytic mode derivatives vs central differences."""
    n = g.dim
    rng = np.random.default_rng(seed)
    us = (rng.uniform(-1.0, 1.0, (u_samples, n))
          + 1j * rng.uniform(-1.0, 1.0, (u_samples, n)))
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
                    calibration: complex = 1.0) -> float:
    """Max coefficient deviation between stepwise advance and direct build,
    each relative to max(1, |direct entry|): |b_k| grows as 1 / sqrt(h)."""
    parts = [float(p) for p in partition]
    for p in parts:   # a refused step is named before its total is built
        _check_step(p)
    state, direct = evolution_functional(space, v_hat, (0.0, sum(parts)), calibration)
    for p in parts:
        state = advance(state, p)
    got, want = (np.concatenate([g.a_pair, g.b, [g.c]])
                 for g in (state.coeffs, direct.coeffs))
    return float((np.abs(got - want) / np.maximum(1.0, np.abs(want))).max())


def compare_kernels(lhs: np.ndarray, rhs: np.ndarray, tol_spread: float,
                    params: dict | None = None) -> ResidualReport:
    """Judge entrywise constancy of lhs/rhs; the constant itself is reported.

    Finite entries with |lhs| below _KERNEL_FLOOR are excluded (their ratio
    is noise).  The verdict fails outright on a non-finite entry in either
    matrix, and on an entry with |lhs| at or above the floor whose rhs is 0;
    both counts are in params.  It is inconclusive when nothing survives
    the floor.
    """
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    if lhs.shape != rhs.shape:
        raise ValueError("kernel matrices must have matching shapes")
    finite = np.isfinite(lhs) & np.isfinite(rhs)
    above = finite & (np.abs(lhs) >= _KERNEL_FLOOR)
    mask = above & (rhs != 0)
    report = ResidualReport(identity="boundary_kernel_match", params=dict(params or {}),
                            tolerances={"spread": tol_spread})
    report.params.update(entries_total=lhs.size, entries_used=int(mask.sum()),
                         entries_non_finite=int(lhs.size - finite.sum()),
                         entries_zero_rhs=int((above & (rhs == 0)).sum()),
                         floor=_KERNEL_FLOOR)
    if report.params["entries_non_finite"] or report.params["entries_zero_rhs"]:
        report.verdict = "fail"
        report.note = "non-finite entries, or rhs 0 at or above the floor"
    elif not mask.any():
        report.verdict = "inconclusive"
        report.note = "all entries below the comparison floor"
    else:
        ratio = lhs[mask] / rhs[mask]
        mean = complex(ratio.mean())
        report.numeric_spread = float(ratio.std() / abs(mean))
        report.params["mean_ratio"] = mean
        if not report.numeric_spread < tol_spread:
            report.verdict = "fail"
    return report
