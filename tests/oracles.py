"""Test oracles shared by the test modules: each run's whole history of a
batch, the residual of the fractional equation along a recorded trajectory,
a space-time field's values on its whole lattice, and a carrier band's
coefficients on a whole grid."""

import numpy as np

from fnls.errors import ValidationError
from fnls.evolution import Trajectory, evolve_records
from fnls.norms import SpaceTimeField
from fnls.spectral import Grid, cubic_values


def history(runs) -> list:
    """One Trajectory per (phi, cfg) run, from every record of the batch's
    evolve_records copied out: row i of the stepped (rows, nx) state at each
    record is run i's values there."""
    runs = list(runs)
    records = [(t, coeffs.copy()) for t, coeffs in evolve_records(runs)]
    values = np.stack([coeffs for _, coeffs in records], axis=1)
    times = [t for t, _ in records]
    return [Trajectory(times, cfg.grid, values[row]) for row, (_, cfg) in enumerate(runs)]


def dense(f: SpaceTimeField) -> np.ndarray:
    """The (tau, xi) lattice array of f: its stored rows, zeros elsewhere."""
    out = np.zeros((f.tau.size, f.xi.size), dtype=f.values.dtype)
    out[f.first + np.arange(f.values.shape[0])[:, None], np.arange(f.xi.size)] = f.values
    return out


def scatter(f, grid: Grid) -> np.ndarray:
    """f's coefficients (a row per record of a Trajectory) on grid, a grid of
    the same torus with no carrier: mode k of f's grid is mode k of grid, and
    grid's other modes are zero."""
    band = f.grid
    if grid.carrier != 0.0 or abs(grid.length - band.length) > 1e-12 * band.length:
        raise ValidationError("scatter needs a grid of the same torus with no carrier")
    modes = np.round(band.k / band.dk).astype(int)
    if modes.min() < -grid.nx // 2 or modes.max() >= grid.nx // 2:
        raise ValidationError("the band does not fit the grid")
    out = np.zeros(f.values.shape[:-1] + (grid.nx,), dtype=np.complex128)
    out[..., modes % grid.nx] = f.values
    return out


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
