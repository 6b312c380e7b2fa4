"""Model building blocks: grids, kernels, nonlinearities, forcing."""

from .grid import PeriodicGrid
from .nonlinearity import Nonlinearity, saturating_exponential
from .kernels import (
    SeparableKernel,
    Reach,
    SpatialKernel,
    box_profile,
    periodize_kernel,
    time_integrate_kernel,
)
from .forcing import bump_forcing

__all__ = [
    "PeriodicGrid",
    "Nonlinearity",
    "saturating_exponential",
    "SeparableKernel",
    "Reach",
    "SpatialKernel",
    "box_profile",
    "periodize_kernel",
    "time_integrate_kernel",
    "bump_forcing",
]
