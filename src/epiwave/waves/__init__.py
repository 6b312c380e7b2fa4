"""Front speeds, traveling profiles, and the below-speed diagnostics."""

from .dispersion import (
    DispersionPoint,
    SpeedResult,
    TiltedOperator,
    complex_decay_root,
    default_rho_grid,
    dispersion_eigenvalue,
    minimal_speed,
)
from .oscillation import OscillatingSubsolution, oscillating_subsolution
from .profile import (
    SubSuperPair,
    WaveOperator,
    WaveSolution,
    build_sub_super,
    construct_wave,
)

__all__ = [
    "DispersionPoint",
    "OscillatingSubsolution",
    "SpeedResult",
    "SubSuperPair",
    "TiltedOperator",
    "WaveOperator",
    "WaveSolution",
    "build_sub_super",
    "complex_decay_root",
    "construct_wave",
    "default_rho_grid",
    "dispersion_eigenvalue",
    "minimal_speed",
    "oscillating_subsolution",
]
