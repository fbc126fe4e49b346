"""Desk-scale verification laboratory for pseudodynamical evolution of the
free scalar field: delta-layer sources in the Gaussian generating
functional, the evolution functionals they define, and residual checks of
the identities those functionals satisfy, cross-validated by a 1D
driven-oscillator grid solver."""

from .gaussian import (GaussianCoefficients, PairCoefficients,
                       QuadraticPolynomial, apply_first_order,
                       apply_second_order, evaluate, gradient_at,
                       log_evaluate)
from .modespace import ModeSpace, ModeVector, build_mode_space
from .propagator import (PoleResolutionError, feynman_kernel_closed,
                         feynman_kernel_quadrature, richardson_kernel,
                         truncation_tail)
from .pseudodynamics import (EvolutionState, advance, calibrate,
                             evolution_functional)
from .qm_oracle import (BoundaryFactors, QMGrid, cross_coefficient_solver,
                        ground_state, kernel_matrix_genfunc,
                        kernel_matrix_solver, propagate_driven)
from .reports import ResidualReport
from .sources import ZExponent, z_exponent
from .verifier import (compare_kernels, first_order_residual, gradient_check,
                       resolve_hamiltonian_signs, schrodinger_residual,
                       semigroup_check)

__version__ = "0.1.0"
