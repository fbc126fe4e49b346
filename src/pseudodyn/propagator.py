"""Single-mode Feynman energy integral: closed form and quadrature oracle.

The kernel is fixed as

    D(tau; omega) = (1/2pi) * integral dE e^{i*E*tau} / (E^2 - omega^2 + i*eps),

in the limit eps -> 0+, which contour evaluation gives as

    D(tau; omega) = -(i / (2 omega)) * e^{-i omega |tau|}.

The denominator is even in E, so E -> -E turns e^{iE tau} into e^{-iE tau}:
the integral is (1/2pi) int_0^inf 2 cos(E tau) / (E^2 - omega^2 + i eps) dE,
the same for either transform sign, and no sign is an argument anywhere.
The quadrature path evaluates that half-line integral by composite
Gauss-Legendre quadrature with one panel centred on the pole E = omega,
eps/(2 omega) off the real axis; every other panel is no longer than its
distance to the pole nor than two periods of cos(E tau).  Each panel then
converges geometrically (the pole lies outside a Bernstein ellipse of fixed
size; Trefethen, SIAM Review 50, 2008), and the node count grows as
log(1/eps) plus log(e_cut) at tau = 0 or e_cut |tau| / (4 pi).  It exists
only to check the closed form; the closed form never takes eps as an
argument.  The 1/(2pi) normalization is fixed.  The 20-point panel rule is
a fixed table equal to numpy's leggauss(20), pinned by a test, so no path
here calls LAPACK.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "PoleResolutionError",
    "feynman_kernel_closed",
    "feynman_kernel_quadrature",
    "kernel_trapezoid_sums",
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


def kernel_trapezoid_sums(x, y, t_initial: float, t_final: float, omegas):
    """Per-mode kernel trapezoid sums against samples, from one phase table.

    x and y hold samples spread evenly over [t_initial, t_final], one row
    per time and one column per mode; omegas has one entry per column.
    Returns sum_m w_m D(t_initial - t_m) x_m, sum_m w_m D(t_final - t_m) x_m
    and the double sum sum_{m,m'} w_m w_m' x_m D(t_m - t_m') y_m'.  All three
    read one table e^{-i w (t_m - t_initial)}: the t_final sum is its
    conjugate turned by e^{-i w (t_final - t_initial)}, and the |t - t'|
    kernel of the double sum is split at the diagonal into cumulative sums,
    O(n) per mode instead of an (n, n) matrix.
    """
    times = np.linspace(t_initial, t_final, len(x))
    weights = np.full(len(x), times[1] - times[0])
    weights[[0, -1]] *= 0.5
    phase = np.exp(-1j * np.outer(times - t_initial, omegas))   # e^{-i w (t_m - t0)}
    wx = weights[:, None] * x
    # products with phase are rebuilt in the double sum: kept, they raise its peak
    at_initial = (wx * phase).sum(axis=0)
    at_final = (wx * np.conj(phase)).sum(axis=0)
    wy = weights[:, None] * y
    below = np.cumsum(wy * np.conj(phase), axis=0)                     # m' <= m
    above = np.cumsum((wy * phase)[::-1], axis=0)[::-1] - wy * phase   # m' > m
    double = ((wx * phase) * below + (wx * np.conj(phase)) * above).sum(axis=0)
    turn = np.exp(-1j * (t_final - t_initial) * omegas)
    d0 = -0.5j / omegas
    return d0 * at_initial, d0 * turn * at_final, d0 * double


# The 20-point Gauss-Legendre rule on [-1, 1]: the positive half of
# numpy.polynomial.legendre.leggauss(20), bit for bit, mirrored as leggauss
# itself symmetrizes it.  leggauss solves the Golub-Welsch eigenproblem
# through LAPACK, loading numpy.polynomial and LAPACK's buffers at its first
# call; the table keeps both off the criterion-1 path.
_GL_POSITIVE = np.array([   # node, weight
    [0.07652652113349734, 0.15275338713072628],
    [0.22778585114164507, 0.14917298647260424],
    [0.37370608871541955, 0.1420961093183824],
    [0.5108670019508271, 0.1316886384491769],
    [0.636053680726515, 0.1181945319615186],
    [0.7463319064601508, 0.1019301198172407],
    [0.8391169718222188, 0.08327674157670471],
    [0.912234428251326, 0.06267204833410879],
    [0.9639719272779138, 0.040601429800386446],
    [0.993128599185095, 0.017614007139150893],
])
_GL_NODES = np.concatenate([-_GL_POSITIVE[::-1, 0], _GL_POSITIVE[:, 0]])
_GL_WEIGHTS = np.concatenate([_GL_POSITIVE[::-1, 1], _GL_POSITIVE[:, 1]])
_GL_NODES.setflags(write=False)
_GL_WEIGHTS.setflags(write=False)
_PANEL_NODES = _GL_NODES.size   # Gauss-Legendre nodes per panel


def feynman_kernel_quadrature(omega: float, tau: float, eps: float, e_cut: float,
                              n_points: int = 2_000_000) -> complex:
    """Composite Gauss-Legendre estimate of the regularized kernel at finite
    eps and e_cut.

    The integrand is even in E, so [-e_cut, e_cut] folds onto [0, e_cut] as
    2 cos(E tau) / (E^2 - omega^2 + i eps), and tau enters through |tau|.
    The pole sits d = eps/(2 omega) off the real axis at E = omega.  A panel
    of half-width d is centred on it; every other panel is no longer than
    its distance to the pole nor than cap = 4 pi/|tau| (no cap at tau = 0).
    So [0, e_cut] holds about log2(omega/d) + log2(min(e_cut, cap)/d) panels
    doubling in length and e_cut/cap uniform ones, 20 nodes each from the
    fixed table _GL_NODES, _GL_WEIGHTS (numpy's leggauss(20)).

    n_points is the caller's node budget.  The mesh's node count is worked
    out from its panel counts before any array is built; if it exceeds the
    budget, a PoleResolutionError is raised instead of returning an
    under-resolved value; so is ulp(omega^2) > 1e-6 eps, where rounding of
    E^2 - omega^2 at the pole rivals eps.  Truncation at e_cut is part of
    the definition here; see truncation_tail for the leftover.
    """
    if not 0 < omega < np.inf:
        raise ValueError(f"omega must be finite and strictly positive, got {omega}")
    if not np.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if not 10 * omega <= e_cut < np.inf:
        raise ValueError(f"e_cut must be finite and well above omega (>= 10*omega), "
                         f"got {e_cut}")
    if math.ulp(omega * omega) > 1e-6 * eps:
        raise PoleResolutionError(f"eps {eps:g} is below 1e6 ulp(omega^2) at omega {omega:g}")
    # panel lengths double from inner while within the cap, then stay below it
    cap = min(4.0 * math.pi / abs(tau), e_cut) if tau else e_cut
    inner = min(eps / (2.0 * omega), omega, 0.5 * cap)
    reach = math.floor(math.log2(cap / inner)) + 1
    ends = (omega, e_cut - omega)   # from the pole at E = omega to 0 and to e_cut
    grown = [min(math.ceil(math.log2(end / inner)), reach) for end in ends]
    capped = [math.ceil((end - min(inner * 2.0 ** g, end)) / cap)
              for end, g in zip(ends, grown)]
    required = _PANEL_NODES * (1 + sum(grown) + sum(capped))
    if n_points < required:
        raise PoleResolutionError(
            f"node budget {n_points} is below the {required} nodes of the panel "
            f"mesh on [0, {e_cut:g}] graded to half-width {inner:g} at E = {omega:g}"
        )
    # edges as distances from the pole, then on [0, e_cut]
    below, above = (np.append(np.minimum(inner * 2.0 ** np.arange(g + 1), end),
                              np.linspace(inner * 2.0 ** g, end, c + 1)[1:])
                    for end, g, c in zip(ends, grown, capped))
    edges = np.concatenate([omega - below[::-1], omega + above])
    edges[[0, -1]] = 0.0, e_cut
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * _GL_NODES
    weights = half[:, None] * _GL_WEIGHTS
    f = np.cos(abs(tau) * nodes) / (nodes * nodes - omega * omega + 1j * eps)
    # the factor 2 of the fold cancels against the 1/(2pi); a plain weighted
    # sum: a BLAS dot of this length runs threaded, and OpenBLAS leaves its
    # worker spinning on a core after it returns
    return complex((f * weights).sum() / np.pi)


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
                      e_cut: float | None = None) -> complex:
    """Extrapolate the quadrature kernel to eps -> 0.

    Polynomial (Richardson) extrapolation in eps of the panel quadrature
    values, plus the eps-independent truncation tail, which is always added:
    without it the accuracy floors at ~2*omega/(pi*e_cut) relative.  Each
    quadrature call has the default node budget.
    """
    eps_values = sorted(set(float(e) for e in eps_values), reverse=True)
    if len(eps_values) < 2:
        raise ValueError("need at least two eps values to extrapolate")
    if e_cut is None:
        e_cut = 1e3 * omega
    vals = [feynman_kernel_quadrature(omega, tau, e, e_cut) for e in eps_values]
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
