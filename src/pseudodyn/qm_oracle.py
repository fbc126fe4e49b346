"""Brute-force 1D oracle: a driven harmonic oscillator on a position grid.

Each momentum mode of the free field is a harmonic oscillator, so the field
identities can be validated mode by mode against an independent PDE solver.
This module solves

    dpsi/dt = -(i/h) (H - j1(t) q) psi,      H = (p^2 + omega^2 q^2) / 2

by unitary split-step Fourier stepping, and builds the boundary-weighted,
endpoint-transformed evolution kernel

    M(p0, p) = int dq dq0  psi_R(q) e^{i p q / h}  U(T, T0)  psi_L(q0) e^{-i p0 q0 / h}

whose entries must match, up to one global constant, the generating
functional evaluated on the composite source
j(t) = p delta(t-T) - p0 delta(t-T0) + j1(t) on [T0, T].

The half-infinite trajectory weights are represented by oscillator ground
states (the damping prescription projects onto the vacuum); since every
comparison is up to a constant, their normalization never enters.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .modespace import require_real
from .sources import exponent_coefficients

__all__ = [
    "QMGrid", "BoundaryFactors", "ground_state", "propagate_driven",
    "kernel_matrix_solver", "kernel_matrix_genfunc", "cross_coefficient_solver",
]

_EDGE_TOL = 1e-8
_EDGE_CHECK_STRIDE = 200
# fewest complex values (rows x points) in one chunk of propagate_driven.
# The calling thread evolves the first chunk, one plain thread each other.
# Each numpy call holds the GIL for its Python-side overhead, so small
# chunks serialize on it: on a 2-core Xeon, two threads against one ran
# 0.3-0.96x as fast with 4096 values per chunk (256 to 2048 points) and
# 1.16-1.47x with 8192
_MIN_CHUNK_VALUES = 8192
# most split steps one propagate_driven window may take.  A driven window
# holds two float arrays of one value per step, 160 MB at the budget; each
# step is two FFTs per row, 6-7.5 us each at 1024 points on a 2-core Xeon,
# so the budget is 2-2.5 minutes per row, over an hour for the 32 rows of
# an oracle-qm kernel case
_MAX_STEPS = 10**7
_EIGEN_TOL = 1e-10


@dataclass(frozen=True)
class QMGrid:
    """Periodic position grid and step size for the oscillator solver."""

    q_min: float
    q_max: float
    n_points: int
    dt: float
    omega: float
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("q_min", "q_max", "dt", "omega", "hbar"):
            require_real(name, getattr(self, name))
        n = self.n_points
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 16:
            raise ValueError(f"n_points must be an integer >= 16, got {n!r}")
        if not self.q_max > self.q_min:
            raise ValueError("q_max must exceed q_min")
        for name in ("dt", "omega", "hbar"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        # an infinite bound or width leaves inf * 0 = NaN in q, an infinite
        # hbar a flat vacuum whose eigen-residual is NaN
        width = self.q_max - self.q_min
        for name, value in (("q_min", self.q_min), ("q_max", self.q_max),
                            ("q_max - q_min", width), ("hbar", self.hbar)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.dt > 0.01 / self.omega + 1e-15:
            raise ValueError(
                f"dt={self.dt} too coarse; need dt <= 0.01/omega = {0.01 / self.omega:g}"
            )

    @cached_property
    def q(self) -> np.ndarray:
        qs = self.q_min + self.dq * np.arange(self.n_points)
        qs.setflags(write=False)
        return qs

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / self.n_points

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        k = 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dq)
        k.setflags(write=False)
        return k

    @property
    def p_band_limit(self) -> float:
        """Half the grid Nyquist wavenumber, the safe endpoint-transform band."""
        return 0.5 * np.pi * self.n_points / (self.q_max - self.q_min)

    @property
    def potential(self) -> np.ndarray:
        return 0.5 * self.omega**2 * self.q**2

    def norm(self, psi: np.ndarray) -> float:
        return float(np.sqrt(np.sum(np.abs(psi) ** 2, axis=-1) * self.dq))


def ground_state(grid: QMGrid) -> np.ndarray:
    """Normalized oscillator ground state on the grid.

    The analytic vacuum exp(-omega q^2 / (2 h)), gated on its eigen-residual
    ||H psi - E psi|| <= _EIGEN_TOL for the grid Hamiltonian (spectral
    kinetic term by one FFT pair plus the diagonal potential, E the
    Rayleigh quotient).  float64 floors the residual near 1e-12 on the
    default grids; a box too small for the vacuum's width wraps its tails
    around the periodic grid and fails the gate (omega 0.3 on [-12, 12]
    reaches 8e-9).  A vacuum that underflows at every grid point is refused
    before it is normalized.
    """
    psi = np.exp(-0.5 * grid.omega / grid.hbar * grid.q**2)
    norm = grid.norm(psi)
    if not norm > 0:
        raise RuntimeError("ground state underflows at every grid point")
    psi /= norm
    kin = 0.5 * grid.hbar**2 * grid.wavenumbers**2
    h_psi = np.fft.ifft(kin * np.fft.fft(psi)).real + grid.potential * psi
    energy = (psi @ h_psi) / (psi @ psi)
    residual = grid.norm(h_psi - energy * psi)
    if not residual <= _EIGEN_TOL:  # NaN fails it
        raise RuntimeError(
            f"ground state eigen-residual {residual:.3e} above {_EIGEN_TOL:g}; "
            "enlarge the grid"
        )
    return psi


@dataclass(frozen=True)
class BoundaryFactors:
    """L2-normalized boundary weights standing in for the half-infinite
    trajectory measures on each side of the evolution window."""

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        for name in ("left", "right"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def vacuum(cls, grid: QMGrid) -> "BoundaryFactors":
        psi = ground_state(grid)
        return cls(left=psi, right=psi)


def _check_edges(rows: np.ndarray, where: str, mags: np.ndarray):
    """Raise if any row's edge amplitude exceeds _EDGE_TOL of that row's own
    peak, so a faint row cannot hide behind a bright one and the verdict
    does not depend on how the rows are batched.  Magnitudes are taken one
    row at a time into the caller's one-row float buffer mags."""
    peak = np.empty(len(rows))
    edge = np.empty(len(rows))
    for i, row in enumerate(rows):
        np.abs(row, out=mags)
        peak[i] = mags.max()
        edge[i] = np.maximum(mags[:2].max(), mags[-2:].max())
    leaking = edge > _EDGE_TOL * peak
    if leaking.any():
        ratio = (edge[leaking] / peak[leaking]).max()
        raise RuntimeError(
            f"boundary leak {where}: edge amplitude {ratio:.2e} of peak; "
            "enlarge the grid"
        )


def step_count(span: float, dt: float) -> int:
    """Split steps of at most dt (to a relative 1e-12 of rounding slack) over
    a window of length span >= 0, at least one if span > 0, refused above
    the step budget _MAX_STEPS (a NaN or infinite count included)
    before any per-step array is built."""
    steps = span / dt
    if not steps <= _MAX_STEPS:
        raise ValueError(f"a window of length {span:g} needs {steps:.3g} steps at "
                         f"dt={dt}, above the step budget of {_MAX_STEPS:.0e}")
    return int(np.ceil(steps * (1 - 1e-12)))


def checked_drive(drive, span: float, dt: float) -> np.ndarray:
    """The drive as a float array, refused unless it is 1D with >= 2 finite
    uniform samples over a window of positive length span, spaced no finer
    than the solver step dt (one drive value per step), in at most the step
    budget's steps span / dt (dt = 0: no solver)."""
    drive = np.asarray(drive, dtype=float)
    if drive.ndim != 1 or drive.size < 2:
        raise ValueError("drive must be a 1D array with >= 2 samples")
    bad = np.flatnonzero(~np.isfinite(drive))
    if bad.size:
        raise ValueError(f"drive sample {bad[0]} is {drive[bad[0]]}, not finite")
    if not span > 0:
        raise ValueError(f"drive window must have positive length, got {span:g}")
    if dt > 0:
        step_count(span, dt)
    sample_step = span / (drive.size - 1)
    if dt > sample_step + 1e-15:
        raise ValueError(
            f"dt={dt} must not exceed the drive sample step {sample_step:g}"
        )
    return drive


def _available_cpus() -> int:
    """CPUs this process may run on, read afresh on every call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def propagate_driven(psi0: np.ndarray, grid: QMGrid, t_initial: float,
                     t_final: float, drive: np.ndarray | None = None) -> np.ndarray:
    """Evolve psi (batched over leading axes) from t_initial to t_final.

    Strang splitting with the exact spectral kinetic factor: unitary by
    construction and second order in dt.  The drive is a uniformly sampled
    real function on [t_initial, t_final]; samples are interpolated at the
    step midpoints.  A window of more than _MAX_STEPS steps is refused
    before any per-step array is built.  Aborts if any row's amplitude
    reaches the grid edges.

    Step n is half_n K half_n with half_n = exp(i (theta + dt j_n q / (2 h)))
    and theta = -dt V / (2 h).  Adjacent half-steps are fused into one
    phase, so each step is an in-place FFT pair and two multiplies; the
    edge check sees the same magnitudes, since the phases have modulus 1.

    Rows are independent wave functions.  They are cut into contiguous
    chunks of at least _MIN_CHUNK_VALUES values, at most one per available
    CPU.  The calling thread runs the first chunk and one plain thread runs
    each other chunk (numpy's FFTs and ufuncs release the GIL); all of them
    are joined before the first error in chunk order is raised.  Every row
    sees the same operations in the same order whatever the chunking, so
    results are bit-identical to a single-threaded run.  psi0 is copied
    once and the copy is evolved in place.
    """
    psi = np.array(psi0, dtype=complex, order="C")
    _propagate_in_place(psi, grid, t_initial, t_final, drive)
    return psi


def _propagate_in_place(psi0, grid, t_initial, t_final, drive=None, n_steps=None):
    """propagate_driven's solver: evolves the C-contiguous complex array
    psi0 in place, with the same arguments and refusals.  A caller that has
    counted the steps passes n_steps; the step is then span / n_steps."""
    if t_final < t_initial:
        raise ValueError("t_final must be >= t_initial")
    if psi0.shape[-1] != grid.n_points:
        raise ValueError("psi0 last axis must match the grid")
    span = t_final - t_initial
    if span == 0:
        return
    if drive is not None:
        drive = checked_drive(drive, span, grid.dt)
    if n_steps is None:
        n_steps = step_count(span, grid.dt)
    dt = span / n_steps
    kin_factor = np.exp(-1j * dt * grid.hbar * grid.wavenumbers**2 / 2.0)
    q = grid.q / grid.hbar   # the source couples as (i/h) j q
    theta = -0.5 * dt * grid.potential / grid.hbar
    if drive is None:   # a drive-free window builds no per-step array
        j_first = j_last = 0.0
        full = np.exp(2j * theta)   # fused half-steps
    else:
        j_mid = np.interp(t_initial + (np.arange(n_steps) + 0.5) * dt,
                          np.linspace(t_initial, t_final, drive.size), drive)
        j_first, j_last = j_mid[0], j_mid[-1]
        two_theta = 2.0 * theta

    def evolve(rows):
        phase = np.empty(grid.n_points, dtype=complex)   # this thread's own

        def phase_at(base, j):
            """exp(1j * (base + 0.5 * dt * j * q)), by the same operations."""
            np.add(base, np.multiply(0.5 * dt * j, q, out=phase.real), out=phase.real)
            phase.imag = 0.0
            return np.exp(np.multiply(phase, 1j, out=phase), out=phase)

        # numpy's ufunc buffer (per thread) cut to at most one row, a
        # multiple of 16: a batch times a per-point factor then runs in
        # place, where the default 8192 values copied it through a 128 KB
        # buffer at half the speed (16 x 1024, 2-core Xeon)
        with np.errstate():
            np.setbufsize(min(np.getbufsize(), grid.n_points - grid.n_points % 16))
            rows *= phase_at(theta, j_first)
            for step in range(n_steps):
                np.fft.fft(rows, axis=-1, out=rows)
                rows *= kin_factor
                np.fft.ifft(rows, axis=-1, out=rows)
                if step == n_steps - 1:
                    rows *= phase_at(theta, j_last)
                elif drive is None:
                    rows *= full
                else:
                    rows *= phase_at(two_theta, j_mid[step] + j_mid[step + 1])
                if step % _EDGE_CHECK_STRIDE == _EDGE_CHECK_STRIDE - 1:
                    _check_edges(rows, f"at step {step + 1}/{n_steps}", phase.real)
            _check_edges(rows, "at final time", phase.real)

    rows = psi0.reshape(-1, grid.n_points)   # a view: chunks write into psi0
    min_rows = -(-_MIN_CHUNK_VALUES // grid.n_points)
    chunks = np.array_split(rows, max(1, min(_available_cpus(), len(rows) // min_rows)))
    errors = [None] * len(chunks)

    def run(i):
        try:
            evolve(chunks[i])
        except Exception as err:   # raised below, once every worker has joined
            errors[i] = err

    workers = []
    try:
        for i in range(1, len(chunks)):
            worker = threading.Thread(target=run, args=(i,))
            worker.start()
            workers.append(worker)
        run(0)
    finally:
        for worker in workers:
            worker.join()
    for err in errors:
        if err is not None:
            raise err


def check_band(grid: QMGrid, *p_arrays):
    """Refuse momenta the endpoint transform e^{i p q / h} cannot resolve:
    any |p / h| above the grid's p_band_limit, or NaN."""
    limit = grid.p_band_limit
    for arr in p_arrays:
        arr = np.asarray(arr, dtype=float)
        if arr.size and not np.max(np.abs(arr / grid.hbar)) <= limit:
            raise ValueError(
                f"momentum grid exceeds the resolvable band |p| <= {grid.hbar * limit:g}"
            )


def kernel_matrix_solver(grid: QMGrid, boundary: BoundaryFactors,
                         p0_values, p_values, t_initial: float, t_final: float,
                         drive: np.ndarray | None = None) -> np.ndarray:
    """Solver side of the kernel identity, one row per p0, one column per p.

    For each p0 the initial wave function psi_L(q) e^{-i p0 q / h} is
    evolved through the window, weighted by psi_R, and transformed with
    e^{+i p q / h}.  All p0 rows are built into one complex batch, which
    evolves together in place (propagate_driven's solver, without its copy)
    and is then weighted in place.  The endpoint transform is built one
    e^{i p q / h} dq column per p and contracted with np.einsum, numpy's own
    loop: a threaded BLAS call would leave a worker spinning.  So at most
    the batch and one column are alive, besides the result.

    A drive-free window of an even step count n, with p0 and p the same
    momenta, a grid with q_{-j} = -q_j and psi_R the reflection of psi_L,
    is contracted at its midpoint instead: the batch takes n / 2 steps and
    each column is its own p row reflected, j -> -j mod N, times dq.  One
    step is symmetric and commutes with that reflection, so this is the
    same kernel (composition law), apart from the seam q_min, which the
    reflection fixes, at the weight psi(q_min).  Boundary factors not of
    shape (n_points,) are refused.
    """
    p0s = np.atleast_1d(np.asarray(p0_values, dtype=float))
    ps = np.atleast_1d(np.asarray(p_values, dtype=float))
    check_band(grid, p0s, ps)
    q, left, right = grid.q, boundary.left, boundary.right
    if not left.shape == right.shape == q.shape:
        raise ValueError(f"boundary factors must have shape {q.shape}, got "
                         f"left {left.shape} and right {right.shape}")
    # drive-free, an even step count, one momentum set, q_{-j} = -q_j and
    # psi_R = psi_L reflected: the batch evolves to the midpoint only (a
    # backward window is left to the solver's refusal)
    span = t_final - t_initial
    n_steps = step_count(max(span, 0), grid.dt) if drive is None else 1
    reflect = -np.arange(q.size)   # j -> -j mod N
    mirror = (n_steps % 2 == 0 and np.array_equal(p0s, ps)
              and np.array_equal(q[1:], -q[:0:-1]) and np.array_equal(right, left[reflect]))
    batch = np.empty((p0s.size, q.size), dtype=complex)
    for row, p0 in zip(batch, p0s):   # psi_L e^{-i p0 q / h}, as (p0 q + 0i) (-i) / h
        np.multiply(p0, q, out=row)
        row *= -1j
        np.exp(np.divide(row, grid.hbar, out=row), out=row)
        row *= left
    if mirror:
        _propagate_in_place(batch, grid, t_initial, t_initial + span / 2, None,
                            n_steps // 2)
    else:
        _propagate_in_place(batch, grid, t_initial, t_final, drive)
        for row in batch:
            row *= right
    kernel = np.empty((p0s.size, ps.size), dtype=complex)
    column = np.empty(q.size, dtype=complex)
    for j, p in enumerate(ps):
        if mirror:   # the evolved p row at -q, dq
            np.take(batch[j], reflect, out=column)
        else:   # e^{i p q / h} dq
            np.multiply(q, p, out=column)
            column *= 1j
            np.exp(np.divide(column, grid.hbar, out=column), out=column)
        column *= grid.dq
        np.einsum("rq,q->r", batch, column, out=kernel[:, j])
    return kernel


def kernel_matrix_genfunc(p0_values, p_values, omega: float, hbar: float,
                          t_initial: float, t_final: float,
                          drive: np.ndarray | None = None) -> np.ndarray:
    """Generating-functional side of the kernel identity on the same grids.

    The one-mode exponent of sources.exponent_coefficients on the source
    p delta(t - T) - p0 delta(t - T0) + drive, one row per p0 and one
    column per p.
    """
    p0s = np.atleast_1d(np.asarray(p0_values, dtype=float))[:, None]
    ps = np.atleast_1d(np.asarray(p_values, dtype=float))[None, :]
    if drive is not None:
        # the solver's drive rule without its step bound (no time stepping here)
        drive = checked_drive(drive, t_final - t_initial, 0.0)[:, None]
    uu, uv, lin_u, lin_v, const = exponent_coefficients(
        np.array([omega]), [0], hbar, t_initial, t_final, drive)
    return np.exp(uu[0] * ps**2 + 2.0 * uv[0] * ps * p0s + uu[0] * p0s**2
                  + lin_u[0] * ps + lin_v[0] * p0s + const)


def cross_coefficient_solver(grid: QMGrid, boundary: BoundaryFactors,
                             p0: float, p: float, t_initial: float,
                             t_final: float) -> complex:
    """The p0-p cross term of log M measured from the solver.

    The 2x2 log combination cancels every p-independent factor and both
    marginals, leaving the cross coefficient whose phase advances as
    e^{-i omega (T - T0)}.  With p = p0, a drive-free window of an even
    step count and a mirror-symmetric grid and boundary, its 2-row batch
    is contracted at the window's midpoint (kernel_matrix_solver).
    """
    m = kernel_matrix_solver(grid, boundary, [0.0, p0], [0.0, p],
                             t_initial, t_final)
    return complex(np.log((m[1, 1] * m[0, 0]) / (m[1, 0] * m[0, 1])))
