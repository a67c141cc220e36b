"""Test oracles shared by the test modules: each run's whole history of a
batch, the residual of the fractional equation along a recorded trajectory,
a space-time field's values on its whole lattice, a carrier band's
coefficients on a whole grid, the tracemalloc peak of a block, and a
power-law fit by LAPACK least squares."""

import tracemalloc

import numpy as np

from fnls.errors import ValidationError
from fnls.evolution import Trajectory, evolve_records
from fnls.norms import SpaceTimeField
from fnls.spectral import Grid, cubic_values


class TracedPeak:
    """`with TracedPeak() as traced:` runs the block under tracemalloc, and
    traced.peak is then the block's peak of traced bytes: tracing starts
    with the block, so it counts only what the block allocated."""

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        self.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


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
    """The (tau, xi) lattice array of f, a stack of one: its entry's stored
    rows, zeros elsewhere."""
    (n_tau,), (first,), (values,) = f.n_tau, f.first, f.values
    out = np.zeros((n_tau, first.size), dtype=values.dtype)
    out[first + np.arange(values.shape[0])[:, None], np.arange(first.size)] = values
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


def polyfit_power_law(params, values, drop_preasymptotic: bool = True) -> tuple:
    """(slope, slope_stderr, r_squared) of log(values) against log(params) by
    np.polyfit(cov=True), whose least squares and covariance are LAPACK's:
    sorted by parameter, the smallest dropped when drop_preasymptotic and
    there are five or more, r_squared 1 when the log-values' spread is
    round-off, as fit_power_law states them."""
    params = np.asarray(params, dtype=float)
    values = np.asarray(values, dtype=float)
    order = np.argsort(params)
    n_dropped = 1 if (drop_preasymptotic and params.size >= 5) else 0
    x, y = np.log(params[order][n_dropped:]), np.log(values[order][n_dropped:])
    (slope, intercept), cov = np.polyfit(x, y, 1, cov=True)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    round_off = 4.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(y))))
    flat = ss_tot <= y.size * round_off**2
    r2 = 1.0 if flat else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), float(np.sqrt(max(cov[0, 0], 0.0))), r2
