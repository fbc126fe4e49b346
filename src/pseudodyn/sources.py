"""Composite sources and the Gaussian generating-functional exponent.

A source is two delta-in-time layers plus an optional smooth drive,

    j_k(t) = u_k delta(t - T) - v_k delta(t - T0) + d_k(t) on [T0, T],

(the initial layer enters with a minus sign).  Substituted into the free
generating functional, the log of Z factorizes over modes into

    S = (-i/2h) sum_k  int dt dt' j_k(t) D(t - t'; omega_k) j_{-k}(t')

with D the closed-form Feynman kernel.  ZExponent stores the per-mode
coefficients of that quadratic form in the canonical layout

    S = sum_k [ uu_k u_k u_{-k} + uv_k (u_k v_{-k} + v_k u_{-k})
                + vv_k v_k v_{-k} + lu_k u_k + lv_k v_k ] + const,

so each unordered pair is counted twice via the two orderings, matching the
all-ordered-pairs convention of the Gaussian algebra.  Delta-delta terms
are exact; delta-drive and drive-drive terms use trapezoid quadrature on
the caller-supplied uniform sample grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import PairCoefficients
from .modespace import ModeSpace, ModeVector
from .propagator import feynman_kernel_closed, kernel_double_trapezoid

__all__ = ["SourceSpec", "ZExponent", "delta_pair_source", "add_smooth_drive",
           "z_exponent"]

_SPAN_RTOL = 1e-9


@dataclass(frozen=True)
class DriveSamples:
    """Uniformly sampled smooth drive, one ModeVector row per time sample."""

    values: np.ndarray  # (n_samples, num_modes) complex
    dt: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 2 or vals.shape[0] < 2:
            raise ValueError("drive needs at least 2 samples of shape (n, num_modes)")
        if self.dt <= 0:
            raise ValueError("drive sample step must be positive")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def span(self) -> float:
        return (self.n_samples - 1) * self.dt


@dataclass(frozen=True)
class SourceSpec:
    """Delta layer u at time t_final, delta layer -v at t_initial, plus drive."""

    space: ModeSpace
    u_hat: ModeVector
    v_hat: ModeVector
    t_final: float
    t_initial: float
    drive: DriveSamples | None = None

    def __post_init__(self):
        if self.t_initial > self.t_final:
            raise ValueError(
                f"t_initial={self.t_initial} must not exceed t_final={self.t_final}"
            )
        for vec in (self.u_hat, self.v_hat):
            if vec.space.num_modes != self.space.num_modes:
                raise ValueError("layer vectors must live on the source's mode space")
        if self.drive is not None:
            span = self.t_final - self.t_initial
            if self.drive.values.shape[1] != self.space.num_modes:
                raise ValueError("drive samples must have one column per mode")
            if abs(self.drive.span - span) > _SPAN_RTOL * max(1.0, abs(span)):
                raise ValueError(
                    f"drive span {self.drive.span} does not cover [t_initial, t_final] "
                    f"(expected {span})"
                )

    @property
    def duration(self) -> float:
        return self.t_final - self.t_initial


def delta_pair_source(space: ModeSpace, u_hat: ModeVector, v_hat: ModeVector,
                      t_final: float, t_initial: float = 0.0) -> SourceSpec:
    """Two-layer source with no drive."""
    return SourceSpec(space, u_hat, v_hat, t_final, t_initial)


def add_smooth_drive(source: SourceSpec, samples, dt: float) -> SourceSpec:
    """Attach a uniformly sampled drive covering exactly [t_initial, t_final].

    samples may be an (n, num_modes) complex array or a sequence of
    ModeVector.
    """
    if isinstance(samples, (list, tuple)) and samples and isinstance(samples[0], ModeVector):
        samples = np.stack([s.values for s in samples])
    drive = DriveSamples(np.asarray(samples, dtype=complex), float(dt))
    return SourceSpec(source.space, source.u_hat, source.v_hat,
                      source.t_final, source.t_initial, drive)


@dataclass(frozen=True)
class ZExponent:
    """Per-mode coefficients of log Z for a composite source.

    With no drive, uv_k / uu_k has unit modulus for every mode and its phase
    evolves as e^{-i omega_k (T - T0)}; that ratio is the convention-free
    evolution law (the constant sign in front of it is fixed by the kernel
    and absorbed by the calibration step).
    """

    space: ModeSpace
    uu: np.ndarray
    uv: np.ndarray
    vv: np.ndarray
    lin_u: np.ndarray
    lin_v: np.ndarray
    const: complex = 0.0

    def __post_init__(self):
        for name in ("uu", "uv", "vv", "lin_u", "lin_v"):
            arr = np.asarray(getattr(self, name), dtype=complex).copy()
            if arr.shape != (self.space.num_modes,):
                raise ValueError(f"{name} must have one entry per mode")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} has non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "const", complex(self.const))

    def total(self, u_hat: ModeVector, v_hat: ModeVector) -> complex:
        """The full exponent evaluated on layer data (u, v)."""
        neg = self.space.negation
        u = u_hat.values
        v = v_hat.values
        s = (self.uu * u * u[neg] + self.uv * (u * v[neg] + v * u[neg])
             + self.vv * v * v[neg] + self.lin_u * u + self.lin_v * v).sum()
        return complex(s + self.const)

    def cross_ratio(self) -> np.ndarray:
        """uv/uu per mode; modulus 1 whenever the drive is absent."""
        return self.uv / self.uu

    def gaussian_in_u(self, v_hat: ModeVector) -> PairCoefficients:
        """Read the exponent as a Gaussian in u with the v layer contracted.

        The u-u coefficients uu_k are the pairings A_{k,-k} as they stand.
        """
        neg = self.space.negation
        v = v_hat.values
        b = 2.0 * self.uv * v[neg] + self.lin_u
        c = (self.vv * v * v[neg]).sum() + (self.lin_v * v).sum() + self.const
        return PairCoefficients(self.uu, b, c, neg)


def _delta_drive_integral(source: SourceSpec, t_star: float,
                          omegas: np.ndarray) -> np.ndarray:
    """I_j(t*) = trapezoid_t D(t* - t; omega_j) d_j(t), one value per mode."""
    d = source.drive
    times = source.t_initial + d.dt * np.arange(d.n_samples)
    weights = np.full(d.n_samples, d.dt)
    weights[0] = weights[-1] = 0.5 * d.dt
    kern = feynman_kernel_closed(omegas[None, :], np.abs(t_star - times)[:, None])
    return (weights[:, None] * kern * d.values).sum(axis=0)


def _drive_drive_term(source: SourceSpec, omegas: np.ndarray,
                      neg: np.ndarray) -> complex:
    """sum_k double-trapezoid of d_k(t) D(t - t'; omega_k) d_{-k}(t')."""
    d = source.drive
    times = source.t_initial + d.dt * np.arange(d.n_samples)
    return complex(kernel_double_trapezoid(d.values, d.values[:, neg], times,
                                           d.dt, omegas).sum())


def z_exponent(space: ModeSpace, source: SourceSpec) -> ZExponent:
    """Evaluate log Z on a composite source, mode by mode.

    The zero source gives the all-zero exponent (Z = 1).  Every term carries
    the (-i/2h) prefactor of the generating functional; lattice measure
    factors are deliberately left to the downstream calibration.
    """
    if source.space.num_modes != space.num_modes:
        raise ValueError("source was built on a different mode space")
    w = space.frequencies
    pref = -0.5j / space.hbar
    d0 = feynman_kernel_closed(w, 0.0)
    d_gap = feynman_kernel_closed(w, source.duration)
    uu = pref * d0
    vv = pref * d0
    uv = -pref * d_gap
    n = space.num_modes
    lin_u = np.zeros(n, dtype=complex)
    lin_v = np.zeros(n, dtype=complex)
    const = 0.0 + 0.0j
    if source.drive is not None:
        neg = space.negation
        i_final = _delta_drive_integral(source, source.t_final, w)
        i_initial = _delta_drive_integral(source, source.t_initial, w)
        lin_u = 2.0 * pref * i_final[neg]
        lin_v = -2.0 * pref * i_initial[neg]
        const = pref * _drive_drive_term(source, w, neg)
    return ZExponent(space, uu, uv, vv, lin_u, lin_v, const)
