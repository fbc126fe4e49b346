"""Composite sources and the Gaussian generating-functional exponent.

A source is two delta-in-time layers plus an optional smooth drive,

    j_k(t) = u_k delta(t - T) - v_k delta(t - T0) + d_k(t) on [T0, T],

(the initial layer enters with a minus sign).  Substituted into the free
generating functional, the log of Z factorizes over modes into

    S = (-i/2h) sum_k  int dt dt' j_k(t) D(t - t'; omega_k) j_{-k}(t')

with D the closed-form Feynman kernel.  ZExponent is the record of the
per-mode coefficients of that quadratic form in the canonical layout

    S = sum_k [ uu_k (u_k u_{-k} + v_k v_{-k}) + uv_k (u_k v_{-k} + v_k u_{-k})
                + lu_k u_k + lv_k v_k ] + const,

so each unordered pair is counted twice via the two orderings, matching the
all-ordered-pairs convention of the Gaussian algebra.  Both layers' self
terms carry the same coincident kernel D(0), hence the one coefficient uu.
The coefficients depend only on the window [T0, T] and the drive; the
layers enter only when the exponent is read as a Gaussian in u with v
contracted (contract_v, the one contraction, which the state build calls).
Delta-delta terms are exact; delta-drive and drive-drive terms are the
trapezoid sums of propagator.kernel_trapezoid_sums on the drive samples,
spread evenly over the window.
exponent_coefficients is the one place these coefficients are computed and
checked, and it returns the ZExponent that every reader takes as is:
z_exponent, the state build and calibration in pseudodynamics, and the
one-frequency oscillator oracle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .gaussian import PairCoefficients
from .modespace import ModeSpace
from .propagator import feynman_kernel_closed, kernel_trapezoid_sums

__all__ = ["ZExponent", "contract_v", "exponent_coefficients", "z_exponent"]


class ZExponent(NamedTuple):
    """Per-mode coefficients of log Z for a composite source, as
    exponent_coefficients returns them.

    With no drive, uv_k / uu_k has unit modulus for every mode and its phase
    evolves as e^{-i omega_k (T - T0)}; that ratio is the convention-free
    evolution law (the constant sign in front of it is fixed by the kernel
    and absorbed by the calibration step).
    """

    uu: np.ndarray
    uv: np.ndarray
    lin_u: np.ndarray
    lin_v: np.ndarray
    const: complex


def contract_v(coefficients, v, negation, lam=1.0) -> PairCoefficients:
    """The exponent (a ZExponent) with v contracted, read at lam * u:
    pairings a = lam^2 uu, b = lam (2 uv v_{-k} + lin_u), and c, in fresh
    arrays.  a_k = a_{-k} exactly: uu_k depends on omega_k = omega_{-k} alone."""
    uu, uv, lin_u, lin_v, const = coefficients
    v_neg = v[negation]
    b = 2.0 * uv * v_neg + lin_u
    c = (uu * v * v_neg).sum() + (lin_v * v).sum() + const
    return PairCoefficients(lam * lam * uu, lam * b, c, negation)


def exponent_coefficients(omegas, negation, hbar: float, t_initial: float,
                          t_final: float, drive=None) -> ZExponent:
    """Per-mode coefficients of log Z, the one place they are computed.

    The source is u delta(t - t_final) - v delta(t - t_initial) plus the
    optional drive, given as (n, num_modes) samples spread evenly over
    [t_initial, t_final] (n >= 2); mode k pairs with mode negation[k].
    Every term carries the (-i/2h) prefactor of the generating functional.
    Delta-delta terms are exact; delta-drive and drive-drive terms are
    trapezoid sums on the sample grid.  A backwards window (t_initial >
    t_final) raises ValueError: the kernel's |tau| would fold it onto the
    forward one.  So does any non-finite coefficient.
    """
    if t_initial > t_final:
        raise ValueError(f"t_initial={t_initial} must not exceed t_final={t_final}")
    pref = -0.5j / hbar
    uv = -pref * feynman_kernel_closed(omegas, t_final - t_initial)   # checks omegas
    uu = pref * (-0.5j / omegas)   # D(0) = -i/(2 omega): exp(0) == 1, no call needed
    if not (np.isfinite(uu).all() and np.isfinite(uv).all()):
        raise ValueError("uu, uv have non-finite entries")
    if drive is None:
        zero = np.zeros(len(omegas), dtype=complex)
        return ZExponent(uu, uv, zero, zero, 0.0j)
    i_initial, i_final, dd = kernel_trapezoid_sums(drive, drive[:, negation],
                                                   t_initial, t_final, omegas)
    z = ZExponent(uu, uv, 2.0 * pref * i_final[negation],
                  -2.0 * pref * i_initial[negation], pref * complex(dd.sum()))
    if not all(np.isfinite(x).all() for x in z[2:]):
        raise ValueError("lin_u, lin_v, const have non-finite entries")
    return z


def z_exponent(space: ModeSpace, t_final: float, t_initial: float = 0.0,
               drive=None) -> ZExponent:
    """Evaluate log Z on the two-layer source over [t_initial, t_final].

    drive, if given, is an (n >= 2, num_modes) array of samples spread
    evenly over the window.  The zero source gives the all-zero exponent
    (Z = 1).  Lattice measure factors are deliberately left to the
    downstream calibration.
    """
    if drive is not None:
        drive = np.asarray(drive, dtype=complex)
        if drive.ndim != 2 or drive.shape[0] < 2 or drive.shape[1] != space.num_modes:
            raise ValueError(
                f"drive must have shape (n >= 2, {space.num_modes}), got {drive.shape}")
    return exponent_coefficients(space.frequencies, space.negation, space.hbar,
                                 t_initial, t_final, drive)
