"""Momentum-lattice discretization of a free scalar field in a periodic box.

In one spatial dimension with box length L the field factorizes over the
lattice momenta

    p_k = 2*pi*k / L,    k in {-N/2 + 1, ..., N/2},

each mode being an independent harmonic degree of freedom with frequency
omega_k = sqrt(p_k^2 + m^2).  Negation k -> -k maps the index set onto
itself except for the Nyquist-like mode k = N/2, which (as in the usual
discrete-transform convention) is identified with its own negative; k = 0
is likewise self-paired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Real

import numpy as np

__all__ = ["ModeSpace", "ModeVector", "build_mode_space", "require_real"]


def require_real(name: str, value):
    """Refuse a value that is not a real number, or is a bool, by its field."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a real number (not a bool), got {value!r}")


# most modes a lattice may have.  The identity checks hold about 330 bytes
# per mode (+328 MB at N = 2^20), so the cap bounds a run near 1.4 GB
MAX_MODES = 2**22


@dataclass(frozen=True)
class ModeSpace:
    """Finite set of spatial momentum modes with their frequencies.

    Every frequency must be finite and strictly positive (a massless zero
    mode makes 1/omega kernels singular); num_modes is capped at MAX_MODES.
    Instances are immutable (derived arrays read-only) and thread-safe."""

    num_modes: int
    box_length: float
    mass: float
    hbar: float = 1.0

    def __post_init__(self):
        n = self.num_modes
        if not isinstance(n, (int, np.integer)) or n < 2 or n % 2 != 0:
            raise ValueError(f"num_modes must be a positive even integer >= 2, got {n!r}")
        if n > MAX_MODES:
            raise ValueError(f"num_modes must be at most {MAX_MODES} (2^22), got {n}")
        for name in ("box_length", "mass", "hbar"):
            require_real(name, getattr(self, name))
        if not self.box_length > 0:
            raise ValueError(f"box_length must be positive, got {self.box_length}")
        if not self.mass > 0:
            raise ValueError(f"mass must be strictly positive, got {self.mass}")
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        # the lowest and highest frequency (k = 0, N/2) as `frequencies` computes
        # them; a float product overflows to inf where ** raises
        m2 = self.mass * self.mass
        p = 2.0 * math.pi * (n // 2) / self.box_length
        for name, w in (("mass", math.sqrt(m2)), ("box_length", math.sqrt(p * p + m2))):
            if not 0 < w < math.inf:
                raise ValueError(f"{name}={getattr(self, name)} gives a mode the "
                                 f"frequency {w}; it must be finite and positive")

    @cached_property
    def mode_indices(self) -> np.ndarray:
        """Integer mode indices k, ascending from -N/2 + 1 to N/2."""
        half = self.num_modes // 2
        ks = np.arange(-half + 1, half + 1)
        ks.setflags(write=False)
        return ks

    @cached_property
    def momenta(self) -> np.ndarray:
        p = 2.0 * np.pi * self.mode_indices / self.box_length
        p.setflags(write=False)
        return p

    @cached_property
    def frequencies(self) -> np.ndarray:
        w = np.sqrt(self.momenta**2 + self.mass**2)
        w.setflags(write=False)
        return w

    @cached_property
    def negation(self) -> np.ndarray:
        """Position permutation implementing k -> -k (Nyquist self-paired)."""
        half = self.num_modes // 2
        ks = self.mode_indices
        neg = np.where(ks < half, -ks + half - 1, self.num_modes - 1)
        neg.setflags(write=False)
        return neg

    def index_of(self, k: int) -> int:
        """Array position of mode index k."""
        half = self.num_modes // 2
        if not -half + 1 <= k <= half:
            raise IndexError(f"mode index {k} outside {{{-half + 1}, ..., {half}}}")
        return int(k + half - 1)

    def frequency(self, k: int) -> float:
        return float(self.frequencies[self.index_of(k)])

    def to_config(self) -> dict:
        return {
            "num_modes": self.num_modes,
            "box_length": self.box_length,
            "mass": self.mass,
            "hbar": self.hbar,
        }


def build_mode_space(num_modes: int, box_length: float, mass: float,
                     hbar: float = 1.0) -> ModeSpace:
    """Construct a validated ModeSpace; its momenta, frequencies and
    negation are computed on first use."""
    return ModeSpace(num_modes=num_modes, box_length=box_length, mass=mass, hbar=hbar)


@dataclass(frozen=True)
class ModeVector:
    """One complex amplitude per lattice mode."""

    space: ModeSpace
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.space.num_modes,):
            raise ValueError(
                f"expected {self.space.num_modes} amplitudes, got shape {vals.shape}"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, space: ModeSpace) -> "ModeVector":
        return cls(space, np.zeros(space.num_modes, dtype=complex))

    @classmethod
    def basis(cls, space: ModeSpace, k: int, amplitude: complex = 1.0) -> "ModeVector":
        vals = np.zeros(space.num_modes, dtype=complex)
        vals[space.index_of(k)] = amplitude
        return cls(space, vals)

    @classmethod
    def random(cls, space: ModeSpace, rng: np.random.Generator) -> "ModeVector":
        """Amplitudes with real and imaginary parts uniform in [-1, 1]."""
        n = space.num_modes
        raw = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
        return cls(space, raw)
