"""Coefficient-level algebra for complex Gaussian functionals of lattice modes.

A functional is represented as exp(S) with

    S(u) = sum_{k,k'} A_{kk'} u_k u_{k'}  +  sum_k b_k u_k  +  c,

where the quadratic form runs over ALL ordered index pairs, so each
unordered pair is counted twice through the exact symmetry of A.  That
convention makes the mode derivative uniform:

    d/du_k exp(S) = (2 (A u)_k + b_k) exp(S).

First- and second-order mode-differential operators applied to exp(S) are
returned as the exact quadratic polynomial (L exp(S)) / exp(S), which is
where identity residuals are read off.

The evolution states of this package have A supported on the (k, -k)
pairings only.  They carry it in pair form, PairCoefficients: one entry
a_k = A_{k,-k} per mode together with the negation permutation, so that

    S(u) = sum_k a_k u_k u_{-k}  +  b.u  +  c

costs O(N).  Its builders hand over a_pair with a_k = a_{-k} already exact,
so it is not re-symmetrized, and no dense A is built from it.  The dense
GaussianCoefficients and the operators above stay the generic reference
that the tests compare the pair forms against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modespace import ModeVector

__all__ = [
    "GaussianCoefficients",
    "PairCoefficients",
    "QuadraticPolynomial",
    "evaluate",
    "log_evaluate",
    "gradient_at",
    "apply_first_order",
    "apply_second_order",
]

# np.exp overflows (to inf) just above this; callers needing larger
# exponents should work with log_evaluate directly.
_EXP_LIMIT = 700.0


def _values(u) -> np.ndarray:
    if isinstance(u, ModeVector):
        return u.values
    return np.asarray(u, dtype=complex)


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class GaussianCoefficients:
    """Exponent data (A, b, c) of a complex Gaussian functional; A is
    symmetrized exactly at construction."""

    a: np.ndarray
    b: np.ndarray
    c: complex = 0.0

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        b = np.asarray(self.b, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got shape {a.shape}")
        if b.shape != (a.shape[0],):
            raise ValueError(f"b has shape {b.shape}, expected ({a.shape[0]},)")
        a = _symmetrize(a)
        a.setflags(write=False)
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", complex(self.c))

    @property
    def dim(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class PairCoefficients:
    """Exponent data (A, b, c) with A_{k,-k} = a_pair[k] and A zero elsewhere.

    ``negation`` is the position permutation k -> -k.  The builders hand over
    fresh arrays with a_k = a_{-k} exact (the per-mode image of the symmetry
    of A); they are made read-only, not copied or re-symmetrized.
    """

    a_pair: np.ndarray
    b: np.ndarray
    c: complex
    negation: np.ndarray

    def __post_init__(self):
        neg = np.asarray(self.negation)
        a = np.asarray(self.a_pair, dtype=complex)
        b = np.asarray(self.b, dtype=complex)
        if neg.ndim != 1 or a.shape != neg.shape or b.shape != neg.shape:
            raise ValueError(f"a_pair {a.shape}, b {b.shape} and negation "
                             f"{neg.shape} must be equal 1-D shapes")
        for arr in (a, b):
            arr.setflags(write=False)
        object.__setattr__(self, "a_pair", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", complex(self.c))
        object.__setattr__(self, "negation", neg)


@dataclass(frozen=True)
class QuadraticPolynomial:
    """(u^T Q2 u + Q1.u + Q0), the ratio (L exp(S))/exp(S) for operators L."""

    q2: np.ndarray
    q1: np.ndarray
    q0: complex = 0.0

    def __post_init__(self):
        q2 = _symmetrize(np.asarray(self.q2, dtype=complex))
        q1 = np.asarray(self.q1, dtype=complex).copy()
        q2.setflags(write=False)
        q1.setflags(write=False)
        object.__setattr__(self, "q2", q2)
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q0", complex(self.q0))

    def value_at(self, u) -> complex:
        uv = _values(u)
        return complex(uv @ self.q2 @ uv + self.q1 @ uv + self.q0)

    def __sub__(self, other: "QuadraticPolynomial") -> "QuadraticPolynomial":
        return QuadraticPolynomial(self.q2 - other.q2, self.q1 - other.q1,
                                   self.q0 - other.q0)


def log_evaluate(g: GaussianCoefficients, u) -> complex:
    """The exponent S(u) = u^T A u + b.u + c."""
    uv = _values(u)
    if uv.shape != (g.dim,):
        raise ValueError(f"u has shape {uv.shape}, expected ({g.dim},)")
    return complex(uv @ g.a @ uv + g.b @ uv + g.c)


def evaluate(g: GaussianCoefficients, u) -> complex:
    """exp(S(u)).  Raises OverflowError rather than returning inf."""
    s = log_evaluate(g, u)
    if abs(s.real) > _EXP_LIMIT:
        raise OverflowError(
            f"|Re exponent| = {abs(s.real):.3g} exceeds {_EXP_LIMIT}; "
            "use log_evaluate for exponent-domain work"
        )
    return complex(np.exp(s))


def gradient_at(g: GaussianCoefficients, u) -> np.ndarray:
    """Mode derivatives (2 (A u)_k + b_k) exp(S(u)), as a plain array."""
    uv = _values(u)
    return (2.0 * (g.a @ uv) + g.b) * evaluate(g, uv)


def apply_first_order(g: GaussianCoefficients, weights,
                      shift: np.ndarray | None = None) -> QuadraticPolynomial:
    """Exact (L exp(S))/exp(S) for L = sum_k u_k w_k d/du_k + sum_{kk'} s_{kk'} u_k u_{k'}.

    Q2 collects the u_k (2 A u)_k crossings plus the shift pairing, Q1 the
    u_k w_k b_k terms; a pure first-order operator has no constant part.
    """
    w = np.asarray(weights, dtype=complex)
    q2 = _symmetrize(w[:, None] * (2.0 * g.a))
    if shift is not None:
        q2 = q2 + _symmetrize(np.asarray(shift, dtype=complex))
    q1 = w * g.b
    return QuadraticPolynomial(q2, q1, 0.0)


def apply_second_order(g: GaussianCoefficients, curvature: np.ndarray,
                       potential: np.ndarray | None = None) -> QuadraticPolynomial:
    """Exact (L exp(S))/exp(S) for L = sum q_{kk'} u_k u_{k'} + sum c_{kk'} d^2/du_k du_{k'}.

    Uses d_k d_{k'} exp(S) = ((d_k S)(d_{k'} S) + d_k d_{k'} S) exp(S), so with
    A2 = 2A:

        Q2 = q + A2 C A2,   Q1 = 2 A2 C b,   Q0 = b^T C b + tr(A2 C).

    The trace term is the normal-ordering constant.
    """
    c = _symmetrize(np.asarray(curvature, dtype=complex))
    a2 = 2.0 * g.a
    q2 = a2 @ c @ a2
    if potential is not None:
        q2 = q2 + _symmetrize(np.asarray(potential, dtype=complex))
    q1 = 2.0 * (a2 @ (c @ g.b))
    q0 = complex(g.b @ c @ g.b + np.trace(a2 @ c))
    return QuadraticPolynomial(q2, q1, q0)

