"""Single-mode Feynman energy integral: closed form and quadrature oracle.

The kernel is fixed as

    D(tau; omega) = (1/2pi) * integral dE e^{sigma*i*E*tau} / (E^2 - omega^2 + i*eps),

in the limit eps -> 0+, which contour evaluation gives as

    D(tau; omega) = -(i / (2 omega)) * e^{-i omega |tau|},

independent of the transform sign sigma in {+1, -1}.  The quadrature path
evaluates the regularized integral on a graded mesh (dense panels around
the poles at E = +/-omega, a coarser backbone elsewhere) and exists only to
check the closed form; the closed form never takes eps as an argument.
sigma is therefore an argument of the quadrature oracle alone, the one
place it enters an integrand.  The 1/(2pi) normalization is fixed.
"""

from __future__ import annotations

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

    Accepts scalars or arrays (broadcast); omega must be strictly positive.
    The value depends on |tau| only, so the transform sign never enters.
    """
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0):
        raise ValueError("omega must be strictly positive")
    out = -0.5j / w * np.exp(-1j * w * np.abs(tau))
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


def _graded_mesh(omega: float, eps: float, e_cut: float):
    """Segment list [(lo, hi, spacing), ...] covering [-e_cut, e_cut].

    Pole windows of half-width W around +/-omega get spacing eps/8 (the
    integrand is analytic within eps/(2 omega) of the real axis, so spacing
    below eps/4 is required for trapezoid convergence); the rest uses a
    0.01 backbone adequate for the e^{iE tau} oscillation at |tau| <= ~5.
    """
    w_half = min(0.5, 0.9 * omega)
    h_pole = eps / 8.0
    h_back = 0.01
    segs = [
        (-e_cut, -omega - w_half, h_back),
        (-omega - w_half, -omega + w_half, h_pole),
        (-omega + w_half, omega - w_half, h_back),
        (omega - w_half, omega + w_half, h_pole),
        (omega + w_half, e_cut, h_back),
    ]
    return [(lo, hi, h) for lo, hi, h in segs if hi > lo]


def _mesh_points(segments) -> int:
    return sum(int(np.ceil((hi - lo) / h)) + 1 for lo, hi, h in segments)


def feynman_kernel_quadrature(omega: float, tau: float, eps: float, e_cut: float,
                              n_points: int = 2_000_000,
                              sigma: int = 1) -> complex:
    """Trapezoid estimate of the regularized kernel at finite eps and e_cut.

    sigma in {+1, -1} is the sign of the energy transform e^{sigma i E tau}.

    n_points is the caller's point budget.  If it is smaller than the graded
    mesh needs (equivalently, if the implied spacing near E = +/-omega would
    exceed eps/4), a PoleResolutionError is raised instead of returning a
    silently under-resolved value.  Truncation at +/-e_cut is part of the
    definition here; see truncation_tail for the leftover.
    """
    if sigma not in (1, -1):
        raise ValueError(f"sigma must be +1 or -1, got {sigma}")
    if omega <= 0:
        raise ValueError("omega must be strictly positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if e_cut < 10 * omega:
        raise ValueError("e_cut must be well above omega (>= 10*omega)")
    segments = _graded_mesh(omega, eps, e_cut)
    required = _mesh_points(segments)
    if n_points < required:
        raise PoleResolutionError(
            f"point budget {n_points} under-resolves the poles: the graded mesh "
            f"needs {required} points to keep spacing <= {eps / 4:g} near E = +/-{omega:g}"
        )
    total = 0.0 + 0.0j
    for lo, hi, h in segments:
        n = int(np.ceil((hi - lo) / h)) + 1
        grid = np.linspace(lo, hi, n)
        f = np.exp(1j * sigma * grid * tau) / (grid**2 - omega**2 + 1j * eps)
        total += np.trapezoid(f, grid)
    return complex(total / (2.0 * np.pi))


# below this argument Ci and Si come from their power series, above it from
# the continued fraction of E1(ix)
_CISI_SERIES_MAX = 2.0
_CISI_TERMS = 30      # series terms; the last is below 1e-25 at x = 2
_CF_MAX_ITER = 200    # x = 2 converges after 87 terms


def _e1_aux(x: np.ndarray) -> np.ndarray:
    """h(x) = e^{ix} E1(ix) = g(x) - i f(x) for x >= 2, f and g the
    auxiliary functions of Ci and Si (Abramowitz & Stegun 5.2.8-9).

    Modified Lentz evaluation of E1(z) = e^{-z} / (z + 1 - 1/(z + 3 - 4/(z + 5 - ...)))
    at z = ix (Numerical Recipes, 3rd ed., section 6.9).
    """
    b = 1.0 + 1j * x
    c = np.full_like(b, 1.0 / np.finfo(float).tiny)
    d = 1.0 / b
    h = d.copy()
    converged = np.zeros(x.shape, dtype=bool)
    for i in range(1, _CF_MAX_ITER):
        a = -float(i * i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        converged |= np.abs(delta - 1.0) <= np.finfo(float).eps
        if converged.all():
            return h
    raise ArithmeticError("E1(ix) continued fraction did not converge")


def _cisi(x) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine integrals Ci(x), Si(x) for x > 0.

    Power series below x = 2; above it, from the auxiliary functions of
    _e1_aux: Ci = f sin x - g cos x and Si = pi/2 - f cos x - g sin x.
    """
    x = np.asarray(x, dtype=float)
    ci = np.empty_like(x)
    si = np.empty_like(x)
    small = x < _CISI_SERIES_MAX
    xs = x[small]
    # Ci(x) + i Si(x) = gamma + ln x + sum_{k >= 1} (ix)^k / (k k!)
    k = np.arange(1, _CISI_TERMS + 1)
    series = (np.cumprod(1j * xs[:, None] / k, axis=1) / k).sum(axis=1)
    ci[small] = np.euler_gamma + np.log(xs) + series.real
    si[small] = series.imag
    xl = x[~small]
    h = _e1_aux(xl)
    f, g = -h.imag, h.real
    ci[~small] = f * np.sin(xl) - g * np.cos(xl)
    si[~small] = 0.5 * np.pi - (f * np.cos(xl) + g * np.sin(xl))
    return ci, si


def truncation_tail(omega: float, tau: float, e_cut: float) -> complex:
    """The |E| > e_cut remainder of the eps -> 0 kernel integral.

    Both tails combine to T = (1/pi) int_a^inf cos(E tau)/(E^2 - omega^2) dE
    with a = e_cut.  By partial fractions, with x_-/+ = (a -/+ omega)|tau|,

        2 pi omega T = Re[e^{-i a |tau|} (h(x_-) - h(x_+))],

    h(x) = e^{ix} E1(ix) = -e^{ix} (Ci(x) + i (pi/2 - Si(x))).  Above x = 2
    h comes straight from the continued fraction, so pi/2 - Si is never
    formed by subtraction and both terms share the one phase e^{-i a |tau|}.
    At tau = 0, T = ln((a + omega)/(a - omega)) / (2 pi omega).
    """
    if not 0 < omega < e_cut:
        raise ValueError("need 0 < omega < e_cut")
    t = abs(tau)
    if t == 0:
        return complex(np.log1p(2.0 * omega / (e_cut - omega)) / (2.0 * np.pi * omega))
    x = np.array([e_cut - omega, e_cut + omega]) * t
    if x[0] >= _CISI_SERIES_MAX:
        h = _e1_aux(x)
    else:
        ci, si = _cisi(x)
        h = -np.exp(1j * x) * (ci + 1j * (0.5 * np.pi - si))
    return complex((np.exp(-1j * e_cut * t) * (h[0] - h[1])).real
                   / (2.0 * np.pi * omega))


def richardson_kernel(omega: float, tau: float,
                      eps_values=(1e-2, 1e-3, 1e-4),
                      e_cut: float | None = None,
                      n_points: int = 4_000_000,
                      sigma: int = 1) -> complex:
    """Extrapolate the quadrature kernel to eps -> 0.

    Polynomial (Richardson) extrapolation in eps of the trapezoid values,
    plus the eps-independent truncation tail, which is always added:
    without it the accuracy floors at ~2*omega/(pi*e_cut) relative.
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
