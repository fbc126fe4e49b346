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
array.  The residual polynomials are supported on the pairings, Q2 as
Q2_k u_k u_{-k}.  First order: Q2_k = 1 - 2 omega_k a_k and Q1 = 0.  With
g_k = h omega_k^2 / 2, X_k = 4 a_k^2 g_k and Y_k = 4 a_k g_k b_k, H Phi / Phi
at the signs (q, c) has

    Q2_k = c X_k + q h/2,   Q1_k = c Y_k,
    Q0 = c (sum_k b_k g_k b_{-k} + sum_k 2 a_k g_k).

The signs are fixed by the first-order law: at its calibration
a_k = 1 / (2 omega_k) the judged residuals are Q2_k = (c + q) h/2 and
h omega_k b_k - Q1_k = h omega_k b_k (1 - c), so only (-1, +1) closes both.
The residuals of all four pairs follow from X and Y alone, and
resolve_hamiltonian_signs tabulates them as a diagnostic.

The dense operators gaussian.apply_first_order / apply_second_order give the
same polynomials and are the reference the tests compare against.

The finite-difference column re-derives i dPhi/dT / Phi = i dS/dT from
neighbours rebuilt from the kernel, differencing S(T +/- dt) - S(T)
coefficient by coefficient.  Nothing is exponentiated, so a large |Re S|
cannot overflow and the error is the stencil's (omega dt)^2 / 6 however
large the layer.  The step is always 3e-4 / omega_max, following the
lattice cutoff.  Below T = dt, where T - dt has no source construction, a
one-sided second-order stencil on T, T + dt, T + 2 dt replaces the central
one, with its T point rebuilt as well.  So at every T the state under test
enters the column only through its target (Q2, Q1, 0), and a constant
added to S, which the linear identities cannot see, is never judged.  The
column is the relative L2 error of the coefficient rates,
||i h (da, db, dc)/dT - (Q2, Q1, 0)||_2 / max(1, ||(Q2, Q1, 0)||_2), which
is what random u draws would estimate: E|sum_k e_k u_k|^2 is proportional
to ||e||_2^2.  The Schrodinger spread column is the residual's exact bound
over the box |Re u_k|, |Im u_k| <= 1, where |u_k| <= sqrt(2).

compare_kernels judges the one-mode kernel identity of qm_oracle: the
solver's kernel matrix against the generating functional's, up to one
constant.
"""

from __future__ import annotations

import numpy as np

from .gaussian import GaussianCoefficients, evaluate, gradient_at
from .modespace import ModeSpace, ModeVector
from .pseudodynamics import EvolutionState, advance, evolution_functional
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
    """||i scale dS/dT - (q2, q1, 0)||_2 / max(1, ||(q2, q1, 0)||_2) over the
    coefficient rates, and the step; scale is 1 for the first-order law and
    hbar for the Schrodinger form.  dS/dT is differenced from neighbours
    rebuilt from the kernel, so it is independent of the phase law under test.
    """
    dt = _FD_PHASE_STEP / float(state.space.frequencies.max())

    def build(step):
        return evolution_functional(state.space, state.v_hat, state.t + step,
                                    state.calibration).coeffs

    # the one-sided stencil weighs S(T) by -3, so its S(T) is rebuilt too
    g = state.coeffs if state.t >= dt else build(0.0)

    def rise(step):
        """S(T + step) - S(T), coefficient by coefficient."""
        n = build(step)
        return np.concatenate([n.a_pair - g.a_pair, n.b - g.b, [n.c - g.c]])

    if state.t >= dt:
        rates = (rise(dt) - rise(-dt)) / (2.0 * dt)
    else:
        rates = (4.0 * rise(dt) - rise(2.0 * dt)) / (2.0 * dt)
    target = np.concatenate([q2, q1, [0.0]])
    return float(np.linalg.norm(1j * scale * rates - target)
                 / max(1.0, np.linalg.norm(target))), dt


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

    The time derivative on the left is taken analytically from the exact
    coefficient laws (dA/dT = 0, i db_k/dT = omega_k b_k, dc/dT = 0), whose
    Q1 = omega b cancels the right side's exactly; the finite-difference
    column then independently checks those laws against freshly built
    neighbours, differencing S at the step 3e-4 / omega_max (recorded as
    params["dt_step"]); its value is the relative L2 error of the
    coefficient rates against (Q2, Q1, 0).  No u is sampled: seed only
    labels the report.
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


def resolve_hamiltonian_signs(state: EvolutionState) -> dict[str, float]:
    """The Schrodinger residual of this state at each pairing sign pair (q, c),
    keyed "q,c" (such as "-1,+1"): the larger of max_k |c X_k + q h/2| and
    max_k |h omega_k b_k - c Y_k|.  A diagnostic: the verdict is judged at
    (-1, +1), and the table gives its margin over the other three pairs."""
    ms = state.space
    h = ms.hbar
    x, y, _ = _hamiltonian(state)
    lhs_q1 = h * ms.frequencies * state.coeffs.b
    return {f"{q:+d},{c:+d}": float(max(np.max(np.abs(c * x + 0.5 * q * h)),
                                         np.max(np.abs(lhs_q1 - c * y))))
            for q in (1, -1) for c in (1, -1)}


def schrodinger_residual(state: EvolutionState, tol_coeff: float = 1e-10,
                         tol_spread: float = 1e-9, tol_numeric: float = 1e-6,
                         seed: int = 0) -> ResidualReport:
    """Residual of the normally ordered Schrodinger form, up to a T function.

    Q2 and Q1 of (i h d/dT - H) Phi / Phi are judged at the pairing signs
    (-1, +1) the first-order law fixes; the residual at each of the four
    sign pairs (resolve_hamiltonian_signs) is recorded as
    params["sign_residuals"].  The constant Q0 is reported as the recovered
    T function; max_q1 is relative to max(1, |h omega_k b_k|) mode by mode.  The numeric spread column
    checks u-independence as the residual's exact bound over the box
    |Re u_k|, |Im u_k| <= 1, sum_k (2 |Q2_k| + sqrt(2) |Q1_k|) / max(1, |Q0|);
    the fd column re-derives the time derivative by differencing S at the
    step 3e-4 / omega_max (recorded as params["dt_step"]) and is the relative
    L2 error of the coefficient rates of i h dS/dT against those of H Phi / Phi
    without its constant.  No u is sampled: seed only labels the report.
    H = h * H|_{h=1}, so with the first-order calibration
    (a_k = 1 / (2 omega_k) at every h) the form closes at any hbar.  The
    trace part of Q0 is compared with the zero-point energy
    sum_k h omega_k / 2, taken from the frequencies alone, and the gap is
    reported as params["trace_identity_gap"].
    """
    ms = state.space
    h = ms.hbar
    sign_residuals = resolve_hamiltonian_signs(state)
    x, h_q1, g = _hamiltonian(state)
    h_q2 = x - 0.5 * h   # the judged signs (q, c) = (-1, +1)
    lhs_q1 = h * ms.frequencies * state.coeffs.b
    resid_q1 = lhs_q1 - h_q1
    max_q2 = float(np.max(np.abs(h_q2)))
    max_q1 = float((np.abs(resid_q1) / np.maximum(1.0, np.abs(lhs_q1))).max())

    # normal-ordering split of the constant: Q0 = -(b^T C b + tr(2A C)); the
    # trace part is judged against the zero-point energy sum_k h omega_k / 2
    q0_b_part, q0_trace = _hamiltonian_q0_parts(state, g)
    resid_q0 = -(q0_b_part + q0_trace)
    trace_gap = abs(q0_trace - 0.5 * h * float(np.sum(ms.frequencies)))

    spread = (float(2.0 * np.abs(h_q2).sum() + np.sqrt(2.0) * np.abs(resid_q1).sum())
              / max(1.0, abs(resid_q0)))
    fd, dt = _fd_column(state, h, h_q2, h_q1)

    params = _base_params(state, seed)
    params.update({
        "dt_step": dt,
        "sign_residuals": sign_residuals,
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
    """Max coefficient deviation between stepwise advance and direct build."""
    parts = [float(p) for p in partition]
    total = sum(parts)
    state = evolution_functional(space, v_hat, 0.0, calibration)
    for p in parts:
        state = advance(state, p)
    direct = evolution_functional(space, v_hat, total, calibration)
    dev_a = np.abs(state.coeffs.a_pair - direct.coeffs.a_pair).max()
    dev_b = np.abs(state.coeffs.b - direct.coeffs.b).max()
    dev_c = abs(state.coeffs.c - direct.coeffs.c)
    return float(max(dev_a, dev_b, dev_c))


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
