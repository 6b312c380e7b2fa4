"""Spreading analysis for nonlocal epidemic models in periodic media.

The package studies renewal equations of the form

    u(t, x) = integral_0^t integral Gamma(tau, x, y) g(u(t - tau, y)) dy dtau
              + f(t, x)

with a kernel Gamma that is periodic under integer shifts of both spatial
arguments. It provides the principal eigenvalue machinery that decides
between epidemic spread and extinction, the positive steady state reached
in the spreading case, direct time marching, traveling front construction
with its sub- and supersolution certificates, the minimal front speed,
and the reduction of a susceptible-infected system to this equation.
"""

from .errors import ConvergenceError, ValidationError
from .domain import (
    Forcing,
    IsotropicKernel,
    Nonlinearity,
    PeriodicGrid,
    SeparableKernel,
    SpatialKernel,
    TabulatedKernel,
    box_profile,
    bump_forcing,
    periodize_kernel,
    saturating_exponential,
    time_integrate_kernel,
)
from .domain.kernels import SymmetryFactors, separable_contact_kernel

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "ValidationError",
    "Forcing",
    "IsotropicKernel",
    "Nonlinearity",
    "PeriodicGrid",
    "SeparableKernel",
    "SpatialKernel",
    "SymmetryFactors",
    "TabulatedKernel",
    "box_profile",
    "bump_forcing",
    "periodize_kernel",
    "saturating_exponential",
    "separable_contact_kernel",
    "time_integrate_kernel",
    "__version__",
]
