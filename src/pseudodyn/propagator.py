"""Single-mode Feynman energy integral: closed form and quadrature oracle.

The kernel is fixed as

    D(tau; omega) = (1/2pi) * integral dE e^{sigma*i*E*tau} / (E^2 - omega^2 + i*eps),

in the limit eps -> 0+, which contour evaluation gives as

    D(tau; omega) = -(i / (2 omega)) * e^{-i omega |tau|},

independent of the transform sign sigma in {+1, -1}.  The quadrature path
evaluates the regularized integral by composite Gauss-Legendre quadrature
on panels graded geometrically toward the poles at E = +/-omega, which lie
eps/(2 omega) off the real axis, and uniform panels of length at most 1
elsewhere.  Each panel then converges geometrically (the pole lies outside
a Bernstein ellipse of fixed size; Trefethen, SIAM Review 50, 2008), so
the node count grows as log(1/eps).  It exists only to check the closed
form; the closed form never takes eps as an argument.
sigma is therefore an argument of the quadrature oracle alone, the one
place it enters an integrand.  The 1/(2pi) normalization is fixed.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

__all__ = [
    "PoleResolutionError",
    "feynman_kernel_closed",
    "feynman_kernel_quadrature",
    "kernel_double_trapezoid",
    "kernel_trapezoid",
    "richardson_kernel",
    "truncation_tail",
]


class PoleResolutionError(ValueError):
    """Raised when a quadrature grid cannot resolve the pole region."""


def feynman_kernel_closed(omega, tau):
    """Exact eps -> 0+ kernel, -(i/(2 omega)) e^{-i omega |tau|}.

    Accepts scalars or arrays (broadcast); omega must be finite and strictly
    positive and tau finite.
    The value depends on |tau| only, so the transform sign never enters.
    """
    w = np.asarray(omega, dtype=float)
    t = np.abs(tau)
    # min/max propagate NaN, so each comparison also refuses it
    if not 0 < w.min() <= w.max() < np.inf:
        raise ValueError("omega must be finite and strictly positive")
    if not t.max() < np.inf:
        raise ValueError("tau must be finite")
    # -1j * t first: with a scalar tau that is one array product, not two
    out = -0.5j / w * np.exp(-1j * t * w)
    if np.isscalar(omega) and np.isscalar(tau):
        return complex(out)
    return out


def _trapezoid_weights(n: int, step: float) -> np.ndarray:
    """Trapezoid weights of n uniform samples spaced step apart."""
    weights = np.full(n, step)
    weights[0] = weights[-1] = 0.5 * step
    return weights


def kernel_trapezoid(x, t_star: float, times, step, omegas) -> np.ndarray:
    """Per-mode trapezoid sum_m w_m D(t* - t_m) x_m at one time t*.

    x holds samples on the uniform grid ``times`` (spacing ``step``), one
    row per time and one column per mode; omegas has one entry per column.
    """
    weights = _trapezoid_weights(len(times), step)
    kern = feynman_kernel_closed(omegas[None, :], np.abs(t_star - times)[:, None])
    return (weights[:, None] * kern * x).sum(axis=0)


def kernel_double_trapezoid(x, y, times, step, omegas) -> np.ndarray:
    """Per-mode double trapezoid sum_{m,m'} w_m w_m' x_m D(t_m - t_m') y_m'.

    x and y hold samples on the uniform grid ``times`` (spacing ``step``),
    one row per time and one column per mode; omegas has one entry per
    column.  The |t - t'| kernel is split at the diagonal so the double sum
    reduces to cumulative sums, O(n) per mode instead of an (n, n) matrix.
    """
    weights = _trapezoid_weights(len(times), step)
    phase = np.exp(-1j * np.outer(times, omegas))  # e^{-i w t_m}
    wx = weights[:, None] * x
    wy = weights[:, None] * y
    below = np.cumsum(wy * np.conj(phase), axis=0)                     # m' <= m
    above = np.cumsum((wy * phase)[::-1], axis=0)[::-1] - wy * phase   # m' > m
    s = ((wx * phase) * below + (wx * np.conj(phase)) * above).sum(axis=0)
    return -0.5j / omegas * s


_PANEL_NODES = 20   # Gauss-Legendre nodes per panel


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _PANEL_NODES-point Gauss-Legendre rule on
    [-1, 1].  numpy.polynomial is imported here, at the first quadrature
    call, so that importing pseudodyn does not load it."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(_PANEL_NODES)


def feynman_kernel_quadrature(omega: float, tau: float, eps: float, e_cut: float,
                              n_points: int = 2_000_000,
                              sigma: int = 1) -> complex:
    """Composite Gauss-Legendre estimate of the regularized kernel at finite
    eps and e_cut.

    sigma in {+1, -1} is the sign of the energy transform e^{sigma i E tau}.

    The integrand's poles sit at distance d = eps/(2 omega) below and above
    the real axis at E = +/-omega.  Within the window of half-width
    W = min(0.5, 0.9 omega) around each, one panel of half-width d is
    centred on the pole and panels doubling in length step out to W on
    either side, so every panel lies at a distance comparable to its length
    from the pole and converges geometrically.  The rest of [-e_cut, e_cut]
    is cut into uniform panels of length at most 1.  The node count grows
    as log(1/eps), not 1/eps.

    n_points is the caller's node budget.  The mesh's node count is worked
    out from its panel counts before any array is built; if it exceeds the
    budget, a PoleResolutionError is raised instead of returning an
    under-resolved value.  Truncation at +/-e_cut is part of the definition
    here; see truncation_tail for the leftover.
    """
    if sigma not in (1, -1):
        raise ValueError(f"sigma must be +1 or -1, got {sigma}")
    if not 0 < omega < np.inf:
        raise ValueError(f"omega must be finite and strictly positive, got {omega}")
    if not np.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if not 10 * omega <= e_cut < np.inf:
        raise ValueError(f"e_cut must be finite and well above omega (>= 10*omega), "
                         f"got {e_cut}")
    w_half = min(0.5, 0.9 * omega)
    inner = min(eps / (2.0 * omega), w_half)
    graded = math.ceil(math.log2(w_half / inner))    # per side of each pole
    outer = math.ceil(e_cut - omega - w_half)        # per outer segment
    middle = math.ceil(2.0 * (omega - w_half))
    required = _PANEL_NODES * (2 * outer + middle + 2 * (2 * graded + 1))
    if n_points < required:
        raise PoleResolutionError(
            f"node budget {n_points} is below the {required} nodes of the panel "
            f"mesh on [-{e_cut:g}, {e_cut:g}] graded to half-width {inner:g} "
            f"at E = +/-{omega:g}"
        )
    steps = np.minimum(inner * 2.0 ** np.arange(graded + 1), w_half)
    around = np.concatenate([-steps[::-1], steps])   # -W .. W about a pole
    edges = np.concatenate([
        np.linspace(-e_cut, -omega - w_half, outer + 1)[:-1],
        around - omega,
        np.linspace(-omega + w_half, omega - w_half, middle + 1)[1:-1],
        around + omega,
        np.linspace(omega + w_half, e_cut, outer + 1)[1:],
    ])
    x, w = _gauss_legendre()
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * x
    weights = half[:, None] * w
    f = np.exp(1j * sigma * tau * nodes) / (nodes * nodes - omega * omega + 1j * eps)
    # a plain weighted sum: a BLAS dot of this length runs threaded, and
    # OpenBLAS leaves its worker spinning on a core after it returns
    return complex((f * weights).sum() / (2.0 * np.pi))


# below this argument h(x) comes from the power series of E1, above it from
# the continued fraction
_E1_SERIES_MAX = 2.0
_E1_SERIES_TERMS = 30  # the last term is below 1e-25 at x = 2
_CF_MAX_ITER = 200     # x = 2 converges after 87 terms


def _e1_aux(x) -> np.ndarray:
    """h(x) = e^{ix} E1(ix) = g(x) - i f(x) for x > 0, f and g the
    auxiliary functions of Ci and Si (Abramowitz & Stegun 5.2.8-9).

    Below x = 2, from the series E1(z) = -gamma - ln z - sum_{k >= 1}
    (-z)^k / (k k!) (A&S 5.1.11).  Above it, by modified Lentz evaluation of
    E1(z) = e^{-z} / (z + 1 - 1/(z + 3 - 4/(z + 5 - ...))) at z = ix
    (Numerical Recipes, 3rd ed., section 6.9).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    small = x < _E1_SERIES_MAX
    xs = x[small]
    k = np.arange(1, _E1_SERIES_TERMS + 1)
    series = (np.cumprod(-1j * xs[:, None] / k, axis=1) / k).sum(axis=1)
    out[small] = -np.exp(1j * xs) * (np.euler_gamma + np.log(xs) + 0.5j * np.pi
                                     + series)
    b = 1.0 + 1j * x[~small]
    c = np.full_like(b, 1.0 / np.finfo(float).tiny)
    d = 1.0 / b
    h = d.copy()
    converged = np.zeros(b.shape, dtype=bool)
    for i in range(1, _CF_MAX_ITER):
        a = -float(i * i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        converged |= np.abs(delta - 1.0) <= np.finfo(float).eps
        if converged.all():
            out[~small] = h
            return out
    raise ArithmeticError("E1(ix) continued fraction did not converge")


def truncation_tail(omega: float, tau: float, e_cut: float) -> complex:
    """The |E| > e_cut remainder of the eps -> 0 kernel integral.

    Both tails combine to T = (1/pi) int_a^inf cos(E tau)/(E^2 - omega^2) dE
    with a = e_cut.  By partial fractions, with x_-/+ = (a -/+ omega)|tau|,

        2 pi omega T = Re[e^{-i a |tau|} (h(x_-) - h(x_+))],

    h(x) = e^{ix} E1(ix) = -e^{ix} (Ci(x) + i (pi/2 - Si(x))).  h comes
    straight from E1, so pi/2 - Si is never formed by subtraction and both
    terms share the one phase e^{-i a |tau|}.
    At tau = 0, T = ln((a + omega)/(a - omega)) / (2 pi omega).
    """
    if not 0 < omega < e_cut < np.inf:
        raise ValueError(f"need 0 < omega < e_cut < inf, got omega={omega}, e_cut={e_cut}")
    if not np.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    t = abs(tau)
    if t == 0:
        return complex(np.log1p(2.0 * omega / (e_cut - omega)) / (2.0 * np.pi * omega))
    h = _e1_aux(np.array([e_cut - omega, e_cut + omega]) * t)
    return complex((np.exp(-1j * e_cut * t) * (h[0] - h[1])).real
                   / (2.0 * np.pi * omega))


def richardson_kernel(omega: float, tau: float,
                      eps_values=(1e-2, 1e-3, 1e-4),
                      e_cut: float | None = None,
                      n_points: int = 4_000_000,
                      sigma: int = 1) -> complex:
    """Extrapolate the quadrature kernel to eps -> 0.

    Polynomial (Richardson) extrapolation in eps of the panel quadrature
    values, plus the eps-independent truncation tail, which is always added:
    without it the accuracy floors at ~2*omega/(pi*e_cut) relative.
    n_points is the node budget of each quadrature call.
    """
    eps_values = sorted(set(float(e) for e in eps_values), reverse=True)
    if len(eps_values) < 2:
        raise ValueError("need at least two eps values to extrapolate")
    if e_cut is None:
        e_cut = 1e3 * omega
    vals = [feynman_kernel_quadrature(omega, tau, e, e_cut, n_points, sigma)
            for e in eps_values]
    # Lagrange extrapolation to eps = 0
    out = 0.0 + 0.0j
    for i, (ei, vi) in enumerate(zip(eps_values, vals)):
        weight = 1.0
        for j, ej in enumerate(eps_values):
            if j != i:
                weight *= ej / (ej - ei)
        out += weight * vi
    out += truncation_tail(omega, tau, e_cut)
    return complex(out)
