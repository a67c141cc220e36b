"""Shared exception types.

ValueError subclasses signal bad inputs (CLI exit code 1); RuntimeError
subclasses signal failures of a running computation (CLI exit code 2).
"""


class ValidationError(ValueError):
    """Invalid parameter or precondition violation."""


class BlowUpError(RuntimeError):
    """Solution left the trusted range (focusing blow-up or instability)."""

    def __init__(self, t_reached, detail):
        self.t_reached = t_reached
        super().__init__(f"non-finite or oversized field at t={t_reached:.6g} ({detail})")


class WrapAroundError(RuntimeError):
    """Wavepacket too close to the periodic boundary to stand in for the line."""


class ResolutionError(RuntimeError):
    """Grid or lattice too coarse for the requested construction."""


class NonContractionError(RuntimeError):
    """Picard iteration diverged (successive differences kept growing)."""
