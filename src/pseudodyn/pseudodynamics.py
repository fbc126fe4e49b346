"""Evolution functionals from delta-pair sources, and their calibration.

Substituting the two-layer source (final layer u at time T, initial layer
-v at time 0) into the free generating functional and reading the result
as a functional of u gives a complex Gaussian

    Phi(T, u) = exp( u^T A u + b(T).u + c ),

whose coefficients obey two exact laws: A is independent of T with
A_{k,-k} * omega_k constant across modes, and b_k(T) = b_k(0) e^{-i omega_k T}.
Advancing T is therefore a pure phase rotation of b (a semigroup).
States carry the exponent in pair form (gaussian.PairCoefficients, one
a_k = A_{k,-k} per mode), so building and advancing a state costs O(N); no
step copies, re-checks or re-symmetrizes the sources.ZExponent it reads.

The raw kernel normalization does not satisfy the target first-order
evolution equation

    i dPhi/dT = sum_k u_k ( omega_k d/du_k - u_{-k} ) Phi

as written; a single global rescaling u -> lambda*u closes the gap.
The calibration is that one complex number: ``calibrate`` solves for lambda
from the raw coefficients (lambda^2 * 2 omega_k A_{k,-k} = 1, mode-independent
by the 1/omega law); the omega_k d/du_k term closes for any lambda, since
i db/dT = omega b holds exactly.  The quadratic constant a lambda achieves is
measured where it is judged, by verifier.first_order_residual (achieved_c2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import PairCoefficients
from .modespace import ModeSpace, ModeVector
from .sources import contract_v, exponent_coefficients, z_exponent

__all__ = ["EvolutionState", "evolution_functional", "advance", "calibrate"]

_SPREAD_TOL = 1e-12


@dataclass(frozen=True)
class EvolutionState:
    """Gaussian coefficients of Phi(T, .), in pair form, together with
    their provenance; calibration is the lambda they were read at."""

    space: ModeSpace
    t: float
    v_hat: ModeVector
    coeffs: PairCoefficients
    calibration: complex


def evolution_functional(space: ModeSpace, v_hat: ModeVector, t: float,
                         calibration: complex = 1.0) -> EvolutionState:
    """Build Phi(T, .) from the initial layer data v at T0 = 0.

    It is z_exponent(space, T) with v contracted, read at lambda u: one
    sources.contract_v.  lambda is calibration, 1.0 (the raw exponent) by
    default; zero or non-finite is refused.  Negative T is rejected by the
    window-order rule of sources.exponent_coefficients: the kernel's |tau|
    would fold it onto +|T|, and the boundary weights are not orientation-
    symmetric.
    """
    if calibration == 0 or not np.isfinite(calibration):
        raise ValueError(f"lambda must be finite and nonzero, got {calibration}")
    coefficients = exponent_coefficients(space.frequencies, space.negation,
                                         space.hbar, 0.0, t)
    g = contract_v(coefficients, v_hat.values, space.negation, calibration)
    return EvolutionState(space, float(t), v_hat, g, calibration)


def advance(state: EvolutionState, dt: float) -> EvolutionState:
    """Rotate b by e^{-i omega dt}; A and c are exact invariants of T, so
    the new state shares the read-only a_pair of the old one."""
    if not 0 <= dt < np.inf:  # NaN fails both comparisons
        raise ValueError(f"dt must be finite and >= 0, got {dt}")
    g = state.coeffs
    b = np.exp(-1j * state.space.frequencies * dt) * g.b
    return EvolutionState(state.space, state.t + dt, state.v_hat,
                          PairCoefficients(g.a_pair, b, g.c, g.negation), state.calibration)


def calibrate(space: ModeSpace) -> complex:
    """Solve for the global rescaling lambda closing the first-order equation.

    Per mode the requirement is 2 (lambda^2 a_k) omega_k = 1 with a_k the raw
    (uncalibrated, T-independent) pairing coefficient z_exponent(space, 0).uu;
    a_k * omega_k must be mode-independent, so a spread beyond _SPREAD_TOL
    (or a NaN one, from a lattice whose lambda^2 overflows) raises.  The
    principal root of lambda^2 is returned; any other lambda is passed to
    evolution_functional as a plain number.
    """
    lam2 = 1.0 / (2.0 * z_exponent(space, 0.0).uu * space.frequencies)
    center = lam2.mean()
    spread = float(np.max(np.abs(lam2 - center))) / abs(center)
    if not spread <= _SPREAD_TOL:
        raise RuntimeError(
            f"lambda^2 is mode-dependent or not finite (relative spread "
            f"{spread:.3e}); a_k * omega_k should be constant"
        )
    return complex(np.sqrt(center))
