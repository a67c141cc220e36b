"""Test oracle shared by the test modules: the residual of the fractional
equation along a recorded trajectory."""

import numpy as np

from fnls.errors import ValidationError
from fnls.evolution import Trajectory
from fnls.spectral import cubic_values


def pde_residual(
    traj: Trajectory,
    alpha: float,
    gamma: float,
    frame_velocity: float = 0.0,
    phase_rate: float = 0.0,
) -> np.ndarray:
    """L^2 norms of i u_t + |D|^alpha u (+ frame terms) - gamma |u|^2 u at the
    interior recorded times, with u_t from a fourth-order central difference.

    phase_rate theta applies when the stored states were pre-rotated by
    exp(-i theta t): the linear symbol is then shifted by -theta.
    """
    times = traj.times
    if times.size < 5:
        raise ValidationError("need at least five recorded states")
    dt = float(times[1] - times[0])
    grid = traj.grid
    symbol = np.abs(grid.k) ** alpha + frame_velocity * grid.k - phase_rate
    u = traj.values
    out = []
    for n in range(2, times.size - 2):
        du = (-u[n + 2] + 8 * u[n + 1] - 8 * u[n - 1] + u[n - 2]) / (12.0 * dt)
        resid = 1j * du + symbol * u[n] - gamma * cubic_values(u[n], grid)
        out.append(float(np.linalg.norm(resid) / np.sqrt(grid.length)))
    return np.array(out)
