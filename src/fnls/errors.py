"""Shared exception types.

ValueError subclasses signal bad inputs (CLI exit code 1); RuntimeError
subclasses signal failures of a running computation (CLI exit code 2).
"""


class ValidationError(ValueError):
    """Invalid parameter or precondition violation."""


class BlowUpError(RuntimeError):
    """Data that are not finite, or whose conserved bound on |u| or on the
    cubic phase is too large; raised before the first step."""


class WrapAroundError(RuntimeError):
    """Wavepacket too close to the periodic boundary to stand in for the line."""


class ResolutionError(RuntimeError):
    """Grid or lattice too coarse for the requested construction."""


class NonContractionError(RuntimeError):
    """Picard iteration diverged (successive differences kept growing)."""
