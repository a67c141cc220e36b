"""Pseudospectral toolkit for the 1-D cubic fractional Schrodinger equation
i u_t + (-Delta)^(alpha/2) u = gamma |u|^2 u on a torus, with the space-time
norm machinery and scaling experiments used to verify its dispersive
behaviour (conservation laws, resonant trilinear growth, wavepacket norm
scaling, modulated approximate solutions, and the data-separation pipeline).
"""

__version__ = "0.1.0"

from .errors import (
    BlowUpError,
    NonContractionError,
    ResolutionError,
    ValidationError,
    WrapAroundError,
)
from .spectral import Field, Grid, make_grid
from .symbols import (
    envelope_scale,
    group_velocity,
    remainder_bound_constant,
    remainder_symbol,
)
from .norms import SpaceTimeField, energy, mass, sobolev_norm, xsb_norm
from .evolution import (
    PicardResult,
    SimConfig,
    Trajectory,
    evolve,
    evolve_together,
    picard_iterate,
)
from .constructions import (
    BoxSpec,
    WavepacketSpec,
    approximate_solution,
    box_data,
    lambda_for,
    modulated_wavepacket,
    rescale_solution,
    trilinear_convolution,
)
from .experiments import (
    ScanResult,
    fit_power_law,
    initial_field,
    run_approximation_error,
    run_conservation_suite,
    run_illposedness_demo,
    scan_remainder,
    scan_trilinear,
    scan_wavepacket,
)
from .acceptance import run_acceptance

__all__ = [name for name in dir() if not name.startswith("_")]
