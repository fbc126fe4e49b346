"""Evolution functionals from delta-pair sources, and their calibration.

Substituting the two-layer source (final layer u at time T, initial layer
-v at time 0) into the free generating functional and reading the result
as a functional of u gives a complex Gaussian

    Phi(T, u) = exp( u^T A u + b(T).u + c ),

whose coefficients obey two exact laws: A is independent of T with
A_{k,-k} * omega_k constant across modes, and b_k(T) = b_k(0) e^{-i omega_k T}.
Advancing T is therefore a pure phase rotation of b (a semigroup).  States
are plain records carrying the exponent in pair form (gaussian.PairCoefficients,
one a_k = A_{k,-k} per mode), checked once where they are made; building one
or several times (one exponent evaluation) and advancing cost O(N).

The raw kernel normalization does not satisfy the target first-order
equation i dPhi/dT = sum_k u_k ( omega_k d/du_k - u_{-k} ) Phi as written;
one global rescaling u -> lambda*u closes it.  ``calibrate`` solves for
lambda from the raw coefficients (lambda^2 * 2 omega_k A_{k,-k} = 1,
mode-independent by the 1/omega law); the achieved quadratic constant is
measured by verifier.first_order_residual (achieved_c2).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .gaussian import PairCoefficients
from .modespace import ModeSpace, ModeVector
from .sources import contract_v, exponent_coefficients, z_exponent

__all__ = ["EvolutionState", "evolution_functional", "advance", "calibrate"]

_SPREAD_TOL = 1e-12


class EvolutionState(NamedTuple):
    """Gaussian coefficients of Phi(T, .), in pair form, together with
    their provenance; calibration is the lambda they were read at."""

    space: ModeSpace
    t: float
    v_hat: ModeVector
    coeffs: PairCoefficients
    calibration: complex


def evolution_functional(space: ModeSpace, v_hat: ModeVector, t,
                         calibration: complex = 1.0):
    """Phi(T, .) from the initial layer v at T0 = 0, read at lambda u with
    lambda = calibration (1.0, the raw exponent): one state at one time t, or
    one per time of a non-empty 1-D sequence t from one exponent evaluation,
    sharing a and c (sources.contract_v).  A zero or non-finite lambda, a layer
    of another lattice, a t of another shape and a negative T (the window
    order of sources.exponent_coefficients) are refused."""
    if calibration == 0 or not np.isfinite(calibration):
        raise ValueError(f"lambda must be finite and nonzero, got {calibration}")
    if len(v_hat.values) != space.num_modes:
        raise ValueError(
            f"v_hat has {len(v_hat.values)} modes, the lattice {space.num_modes}")
    times = np.asarray(t)
    if times.ndim > 1 or not times.size:
        raise ValueError(
            f"t must be one time or a non-empty 1-D sequence, got shape {times.shape}")
    gs = contract_v(exponent_coefficients(space.frequencies, space.negation,
                                          space.hbar, 0.0, times.ravel()),
                    v_hat.values, space.negation, calibration)
    states = [EvolutionState(space, float(s), v_hat, g, calibration)
              for s, g in zip(times.flat, gs)]
    return states if times.ndim else states[0]


def _check_step(dt):
    if not 0 <= dt < np.inf:  # NaN fails both comparisons
        raise ValueError(f"dt must be finite and >= 0, got {dt}")


def advance(state: EvolutionState, dt: float) -> EvolutionState:
    """Rotate b by e^{-i omega dt}; A and c are exact invariants of T, so the
    new state shares them, in the checked record remade by _make (it takes a
    tuple: _replace's map leaves one tuple per call in CPython's free list)."""
    _check_step(dt)
    g = state.coeffs
    b = np.exp(state.space.frequencies * (-1j * dt)) * g.b
    b.setflags(write=False)
    return EvolutionState(state.space, state.t + dt, state.v_hat,
                          g._make((g.a_pair, b, g.c, g.negation)), state.calibration)


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
