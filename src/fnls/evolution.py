"""Time evolution: Strang split-step integrator and Picard iteration.

The linear flow is applied exactly in spectral space, so the only time
discretization errors come from operator splitting (second order) and the
Duhamel quadrature of the Picard map (interaction-picture trapezoid, also
second order).
The cubic substep is the exact flow of i u_t = gamma |u|^2 u, a pointwise
phase rotation that preserves |u| sample by sample; the phase uses the
dealiased band projection of |u|^2, which is real, so the discrete mass
is conserved to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BlowUpError, NonContractionError, ValidationError, WrapAroundError
from .spectral import (
    PAD_FACTOR,
    Field,
    Grid,
    dealiased_density,
    cubic_values,
    forward_transform,
    inverse_transform,
    lattice_mode,
    spectral_values,
    tail_fraction,
    _frozen_array,
)

TAIL_MASS_LIMIT = 1e-8
CFL_FACTOR = 4.0  # see SimConfig
BLOWUP_THRESHOLD = 1e8  # |u| at which an evolution stops with BlowUpError

# picard_iterate keeps two (n_t + 1) x nx complex histories, the phases and
# the iterate; one of them may take at most this many bytes
PICARD_HISTORY_LIMIT = 64 * 2**20

# time rows per cubic_values call in picard_iterate: a whole-history call
# would hold padded temporaries several histories large
PICARD_BLOCK_ROWS = 16

# evolve_together keeps every recorded state of every run; together they
# may take at most this many bytes
EVOLVE_HISTORY_LIMIT = 2**30


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one evolution run.

    dt may be negative (backward integration) provided t_final has the same
    sign.  The accuracy guard dt * max|symbol| <= 2*pi*CFL_FACTOR concerns
    resolution of the fastest linear phase only; the linear step itself is
    exact and unconditionally stable, so the factor of 4 merely flags
    grossly unresolved configurations.  frame_velocity = v evolves
    w(t, x) = u(t, x + v t), a change of frame that adds v*k to the
    dispersion symbol and leaves every translation-invariant norm unchanged.
    carrier = N (on the lattice) evolves the demodulated e^(-iNx) u: grid
    mode k stands for mode k + N of u, so the symbol is evaluated at k + N.
    The defaults 0 are the plain equation.
    """

    alpha: float
    gamma: float
    dt: float
    t_final: float
    grid: Grid
    record_every: int = 1
    frame_velocity: float = 0.0
    carrier: float = 0.0
    check_tail: bool = False

    def __post_init__(self):
        if not (1.0 < self.alpha <= 2.0):
            raise ValidationError(f"alpha must lie in (1, 2], got {self.alpha}")
        if self.dt == 0.0 or not np.isfinite(self.dt):
            raise ValidationError("dt must be nonzero and finite")
        if self.t_final == 0.0 or self.t_final * self.dt < 0.0:
            raise ValidationError("t_final must be nonzero with the sign of dt")
        if self.record_every < 1:
            raise ValidationError("record_every must be a positive integer")
        lattice_mode(self.carrier, self.grid)
        peak = float(np.max(np.abs(self.symbol())))
        if abs(self.dt) * peak > 2.0 * np.pi * CFL_FACTOR + 1e-12:
            raise ValidationError(
                f"dt*max|symbol| = {abs(self.dt) * peak:.3g} exceeds "
                f"2*pi*CFL_FACTOR = {2.0 * np.pi * CFL_FACTOR:.3g}; reduce dt"
            )

    def symbol(self) -> np.ndarray:
        """Dispersion symbol |k+N|^alpha + frame_velocity*(k+N) on the lattice."""
        k = self.grid.k + self.carrier
        return np.abs(k) ** self.alpha + self.frame_velocity * k


@dataclass(frozen=True)
class Trajectory:
    """States on one grid at uniformly spaced times (monotone in the sign of
    dt): values[j] holds the spectral coefficients at times[j].  values is a
    read-only view of the (records, nx) array passed in, not a copy."""

    times: np.ndarray
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        times = _frozen_array(self.times, float)
        vals = np.asarray(self.values, dtype=np.complex128).view()
        if vals.shape != (times.size, self.grid.nx):
            raise ValidationError(
                f"values shape {vals.shape} does not match ({times.size}, {self.grid.nx})"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", vals)

    @property
    def states(self) -> list[Field]:
        return [Field(self.grid, v) for v in self.values]

    def __sub__(self, other: "Trajectory") -> "Trajectory":
        if (self.grid.length, self.values.shape) != (other.grid.length, other.values.shape):
            raise ValidationError("trajectories differ in grid or record count")
        return Trajectory(self.times, self.grid, self.values - other.values)


def _split_step(half_phase: np.ndarray, gamma: float, dt: float, dx):
    """The Strang step of size dt as a function from stacked (rows, nx)
    spectral coefficients to new ones.  half_phase holds each row's
    exp(i dt symbol / 2) and dx is the (rows, 1) column of grid spacings.

    Four FFTs a step: the padded inverse transform inside dealiased_density
    gives both the samples and the density (two more FFTs), and one forward
    transform returns to spectral space.  The transforms' scalings ride on
    the half-phases: the leading one, times PAD_FACTOR / dx, multiplies the
    coefficients as they are copied into the outer bands of a kept padded
    buffer whose middle band stays zero, and the trailing one, times dx, is
    the forward transform's scaling.  The cubic phase is cos + i sin of the
    real angle -gamma dt |u|^2, formed in a kept buffer.  Each FFT covers
    all rows in one call and no operation mixes rows, so a row computes
    exactly what it would alone.
    """
    if gamma == 0.0:
        return lambda uhat: uhat * half_phase * half_phase
    rows, nx = half_phase.shape
    half = nx // 2
    lead = half_phase * (PAD_FACTOR / dx)
    trail = half_phase * dx
    fine = np.zeros((rows, PAD_FACTOR * nx), dtype=np.complex128)
    phase = np.empty((rows, nx), dtype=np.complex128)

    def step(uhat: np.ndarray) -> np.ndarray:
        np.multiply(uhat[:, :half], lead[:, :half], out=fine[:, :half])
        np.multiply(uhat[:, half:], lead[:, half:], out=fine[:, -half:])
        u, angle = dealiased_density(fine, -gamma * dt)
        np.cos(angle, out=phase.real)
        np.sin(angle, out=phase.imag)
        np.multiply(u, phase, out=phase)
        return forward_transform(phase, trail)

    return step


def _guard(uhat: np.ndarray, dx, limit, threshold: float, t: float, where) -> None:
    # |u|_inf <= (1/L) sum |uhat| gives a cheap sufficient bound per row, so
    # a row with sum |uhat| <= limit = threshold * L is cleared; only a row
    # that is not falls back to its exact samples.  A NaN or inf anywhere
    # makes the sum NaN or inf, which fails the comparison too.
    total = np.sum(np.abs(uhat), axis=-1)
    if np.all(total <= limit):
        return
    for row in np.flatnonzero(~(total <= limit)):
        if not np.isfinite(total[row]):
            raise BlowUpError(t, f"{where(row)}: non-finite spectrum")
        peak = float(np.max(np.abs(inverse_transform(uhat[row], dx[row]))))
        if peak > threshold:
            raise BlowUpError(t, f"{where(row)}: |u| reached {peak:.3g}")


def _guard_can_fire(uhat: np.ndarray, lengths, limit, gamma_dt: float) -> bool:
    # The step conserves each row's sum |uhat|^2 to round-off, so sum |uhat|
    # stays below bound = sqrt(nx sum |uhat|^2) at t = 0, and a row with
    # bound <= limit / 2 never fails _guard's first test.  Its dealiased
    # density stays below nx (bound / L)^2, so a cubic angle under half the
    # largest float keeps the spectrum finite.  Summing |uhat / max|uhat||^2
    # cannot overflow or underflow; non-finite data fail both tests.
    nx = uhat.shape[-1]
    peak = np.max(np.abs(uhat), axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        unit = uhat / np.where(peak > 0.0, peak, 1.0)[:, None]
        bound = peak * np.sqrt(nx * np.sum(unit.real**2 + unit.imag**2, axis=-1))
        angle = abs(gamma_dt) * nx * (bound / lengths) ** 2
    return not (np.all(bound <= 0.5 * limit) and np.all(angle <= 0.5 * np.finfo(float).max))


def _step_plan(cfg: SimConfig):
    """Number of whole steps plus the (possibly zero) shrunken final step."""
    ratio = cfg.t_final / cfg.dt
    if not np.isfinite(ratio):
        raise ValidationError(f"t_final / dt overflows ({cfg.t_final:g} / {cfg.dt:g}); raise dt")
    n_whole = int(np.floor(ratio + 1e-9))
    remainder = cfg.t_final - n_whole * cfg.dt
    if abs(remainder) <= 1e-9 * abs(cfg.dt):
        remainder = 0.0
    return n_whole, remainder


def evolve(phi: Field, cfg: SimConfig) -> Trajectory:
    """Integrate the initial value problem, recording every record_every steps.

    Raises BlowUpError if the solution leaves the trusted range and, when
    cfg.check_tail is set, WrapAroundError if a recorded state accumulates
    mass near the periodic boundary.
    """
    return evolve_together([(phi, cfg)])[0]


def evolve_together(runs: Sequence[tuple[Field, SimConfig]]) -> list[Trajectory]:
    """Integrate several (phi, cfg) problems in one loop, one trajectory each.

    The coefficients are stacked into a (runs, nx) array, so every step
    costs one call per numpy operation whatever the number of runs.  The
    runs must share nx, dt, t_final, record_every and gamma; alpha, the
    grid length, frame_velocity, carrier and check_tail may differ.  Each
    trajectory is bit-identical to evolve(phi, cfg) for its run, and a run
    that fails raises what evolve would raise for it, naming the run by its
    row, alpha and carrier.
    Each trajectory's values are a row of one (runs, records, nx) history;
    a history over EVOLVE_HISTORY_LIMIT bytes is rejected before allocation.
    The blow-up guard runs after every step unless, at t = 0, every row is
    cleared for good (see _guard_can_fire): the step conserves each row's
    sum |uhat|^2, which bounds sum |uhat| and the cubic angle for all time.
    """
    runs = list(runs)
    if not runs:
        raise ValidationError("evolve_together needs at least one run")
    cfgs = [cfg for _, cfg in runs]
    if len({(c.grid.nx, c.dt, c.t_final, c.record_every, c.gamma) for c in cfgs}) != 1:
        raise ValidationError("runs must share nx, dt, t_final, record_every and gamma")
    for phi, cfg in runs:
        if (phi.grid.nx, phi.grid.length) != (cfg.grid.nx, cfg.grid.length):
            raise ValidationError("initial data grid does not match config grid")
    cfg = cfgs[0]
    n_whole, remainder = _step_plan(cfg)
    # a record after every record_every-th step (step 0 is t = 0), and one
    # at the end when the last step is not among them
    final_record = remainder != 0.0 or n_whole % cfg.record_every != 0
    n_records = n_whole // cfg.record_every + 1 + final_record
    history_bytes = 16 * len(runs) * n_records * cfg.grid.nx  # complex128 entries
    if history_bytes > EVOLVE_HISTORY_LIMIT:
        raise ValidationError(
            f"{len(runs)} run(s) x {n_records} records x {cfg.grid.nx} values need "
            f"{history_bytes / 2**20:.0f} MiB, over the {EVOLVE_HISTORY_LIMIT // 2**20} MiB "
            "limit; raise record_every, shorten t_final or lower nx"
        )
    uhat = np.stack([spectral_values(phi) for phi, _ in runs])
    symbol = np.stack([c.symbol() for c in cfgs])
    dx = np.array([[c.grid.dx] for c in cfgs])
    lengths = np.array([c.grid.length for c in cfgs])
    limit = BLOWUP_THRESHOLD * lengths
    step = _split_step(np.exp(0.5j * cfg.dt * symbol), cfg.gamma, cfg.dt, dx)
    guarded = _guard_can_fire(uhat, lengths, limit, cfg.gamma * cfg.dt)

    def where(row: int) -> str:
        return f"run {row} of {len(cfgs)}, alpha {cfgs[row].alpha:g}, carrier {cfgs[row].carrier:g}"

    history = np.empty((len(runs), n_records, cfg.grid.nx), dtype=np.complex128)
    times: list[float] = []

    def record(t: float, check_tail: bool = True) -> None:
        history[:, len(times)] = uhat
        times.append(t)
        for row, c in enumerate(cfgs):
            if not (check_tail and c.check_tail):
                continue
            frac = tail_fraction(inverse_transform(uhat[row], c.grid.dx))
            if frac > TAIL_MASS_LIMIT:
                raise WrapAroundError(
                    f"{where(row)}: tail mass fraction {frac:.3g} in the outer 10% of the domain "
                    f"at t={t:.6g} exceeds {TAIL_MASS_LIMIT:.0e}"
                )

    record(0.0)
    for n in range(1, n_whole + 1):
        uhat = step(uhat)
        t = n * cfg.dt
        if guarded:
            _guard(uhat, dx, limit, BLOWUP_THRESHOLD, t, where)
        if n % cfg.record_every == 0:
            record(t)
    if remainder != 0.0:
        uhat = _split_step(np.exp(0.5j * remainder * symbol), cfg.gamma, remainder, dx)(uhat)
        if guarded:
            _guard(uhat, dx, limit, BLOWUP_THRESHOLD, cfg.t_final, where)
    if final_record:
        record(cfg.t_final if remainder != 0.0 else n_whole * cfg.dt, check_tail=False)
    return [Trajectory(times, c.grid, history[row]) for row, c in enumerate(cfgs)]


@dataclass(frozen=True)
class PicardResult:
    """Final Picard iterate and the successive-difference norms."""

    final: Field
    difference_norms: np.ndarray
    times: np.ndarray = field(repr=False)


def picard_iterate(phi: Field, cfg: SimConfig, iterations: int) -> PicardResult:
    """Iterate the Duhamel map u -> U(t) phi - i gamma Int U(t-t') |u|^2 u dt'.

    The time integral is the trapezoid rule for the interaction-picture
    form w' = -i U(-t) E(t) on the cfg.dt lattice over [0, t_final], which
    should be small for the map to contract.  Successive differences are
    measured in H^((2-alpha)/4), maximized over the time lattice; growth over
    three consecutive iterations raises NonContractionError.  Inputs whose
    (n_t + 1) x nx history would exceed PICARD_HISTORY_LIMIT bytes are
    rejected before anything is allocated.

    The phases U(t) = exp(i omega t) are computed once per call and U(-t)
    is their conjugate.  The cubic term is evaluated on blocks of
    PICARD_BLOCK_ROWS time rows, whose trapezoid sums are accumulated in a
    block buffer in the order of a cumulative sum.  A block of the next
    iterate reads the current one only at its own and earlier rows (the
    earlier ones through the running sum and the last cubic term carried
    from the block before), so it is completed in the buffer, measured
    against the current rows and copied over them: the loop keeps two
    histories (the phases and the iterate) plus a block of temporaries.
    """
    if iterations < 1:
        raise ValidationError("iterations must be >= 1")
    n_whole, remainder = _step_plan(cfg)
    if remainder != 0.0:
        raise ValidationError("picard_iterate needs t_final to be a multiple of dt")
    history_bytes = 16 * (n_whole + 1) * cfg.grid.nx  # complex128 entries
    if history_bytes > PICARD_HISTORY_LIMIT:
        raise ValidationError(
            f"a Picard history of {n_whole + 1} x {cfg.grid.nx} values needs "
            f"{history_bytes / 2**20:.0f} MiB, over the {PICARD_HISTORY_LIMIT // 2**20} MiB "
            "limit; shorten t_final, raise dt or lower nx"
        )
    grid = cfg.grid
    omega = cfg.symbol()
    times = cfg.dt * np.arange(n_whole + 1)
    s_diff = (2.0 - cfg.alpha) / 4.0
    half_dt = 0.5 * cfg.dt

    phi_hat = spectral_values(phi)
    rot = 1j * omega * times[:, None]
    np.exp(rot, out=rot)  # in place: one history-sized temporary fewer
    current = rot * phi_hat[None, :]  # the free evolution is the first iterate
    buffer = np.empty((PICARD_BLOCK_ROWS, grid.nx), dtype=np.complex128)
    weight = (1.0 + grid.k**2) ** s_diff
    row_diffs = np.empty(times.size)
    # the cubic term's padded buffer (middle band kept zero) and its result
    fine = np.zeros((PICARD_BLOCK_ROWS, PAD_FACTOR * grid.nx), dtype=np.complex128)
    band = np.empty((PICARD_BLOCK_ROWS, grid.nx), dtype=np.complex128)

    diffs = []
    grow_streak = 0
    for _ in range(iterations):
        # g(t) = U(-t) |u|^2 u (t); partial(t_j) = trapezoid sum of g up to t_j
        for start in range(0, times.size, PICARD_BLOCK_ROWS):
            rows = slice(start, start + PICARD_BLOCK_ROWS)
            n_rows = min(PICARD_BLOCK_ROWS, times.size - start)
            g = np.conj(rot[rows]) * cubic_values(current[rows], grid, fine[:n_rows], band[:n_rows])
            block = buffer[:n_rows]
            # trapezoid steps and their running sum, from the block before's;
            # partial(t_1) is the first step, not 0 + step: np.cumsum's bits
            np.add(g[:-1], g[1:], out=block[1:])
            if start == 0:
                block[0] = 0.0
                steps = block[1:]
            else:
                np.add(g_last, g[0], out=block[0])
                steps = block
            steps *= half_dt
            if start:
                steps[0] += partial
            np.add.accumulate(steps, axis=0, out=steps)
            g_last, partial = g[-1], block[-1].copy()
            block[...] = rot[rows] * phi_hat - 1j * cfg.gamma * rot[rows] * block
            d2 = weight * np.abs(block - current[rows]) ** 2
            row_diffs[rows] = np.sum(d2, axis=1)
            current[rows] = block
        diffs.append(float(np.sqrt(np.max(row_diffs) / grid.length)))
        if len(diffs) >= 2 and diffs[-1] > diffs[-2]:
            grow_streak += 1
            if grow_streak >= 3:
                raise NonContractionError(
                    "successive Picard differences grew three times in a row: "
                    f"{diffs[-4:]}"
                )
        else:
            grow_streak = 0
    return PicardResult(
        final=Field(grid, current[-1]),
        difference_norms=np.array(diffs),
        times=times,
    )
