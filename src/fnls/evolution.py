"""Time evolution: Strang split-step integrator and Picard iteration.

The linear flow is applied exactly in spectral space, so the only time
discretization errors come from operator splitting (second order) and the
Duhamel quadrature of the Picard map (interaction-picture trapezoid, also
second order).
The cubic substep is the exact flow of i u_t = gamma |u|^2 u at the nx
samples: a phase rotation by the real angle -gamma dt |u|^2 that preserves
|u| sample by sample, so the discrete mass is conserved to round-off.
Nothing is zero-padded, so the harmonics the phase creates beyond the band
alias back onto it, which is negligible only for resolved data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BlowUpError, NonContractionError, ValidationError, WrapAroundError
from .spectral import (
    EVOLVE_HISTORY_LIMIT,
    Field,
    Grid,
    cubic_values,
    forward_transform,
    inverse_transform,
    lattice_mode,
    spectral_values,
    tail_fraction,
    _frozen_array,
)

# perfbench/tracer.py wraps fnls.evolution.dealiased_density, which nothing
# here calls any more; the re-export goes once the benchmark's tracer
# tolerates deleted names (ROADMAP item 1)
from .spectral import PAD_FACTOR, dealiased_density  # noqa: F401

TAIL_MASS_LIMIT = 1e-8
CFL_FACTOR = 4.0  # see SimConfig
BLOWUP_THRESHOLD = 1e8  # |u| at which an evolution stops with BlowUpError

# a Picard run's work per iteration grows as (n_t + 1) x nx and the rows it
# carries from block to block as iterations x nx; each may be at most this
PICARD_LATTICE_LIMIT = 2**22

# time rows per block of the Picard sweep; every iteration's cubic term over a
# block is one cubic_values call, whose temporaries grow with the block
PICARD_BLOCK_ROWS = 16

# steps x runs x nx of one evolve_together call: 15-45 min on a 2-core host
EVOLVE_WORK_LIMIT = 2**34


def _count(x) -> str:
    """x in full below a million, else to three significant digits."""
    return f"{x:.0f}" if x < 1e6 else f"{x:.3g}" if x < 1e300 else "over 1e300"


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

    Two FFTs a step, both of size nx: an inverse transform gives the
    samples u, the cubic phase cos + i sin of the real angle
    -gamma dt |u|^2 (|u|^2 as re^2 + im^2) is formed in a kept buffer and
    multiplies them, and one forward transform returns to spectral space.
    The transforms' scalings ride on the half-phases: the leading one is
    divided by dx and the trailing one, times dx, is the forward
    transform's scaling.  Each FFT covers all rows in one call and no
    operation mixes rows, so a row computes exactly what it would alone.
    """
    if gamma == 0.0:
        return lambda uhat: uhat * half_phase * half_phase
    lead = half_phase / dx
    trail = half_phase * dx
    phase = np.empty(half_phase.shape, dtype=np.complex128)

    def step(uhat: np.ndarray) -> np.ndarray:
        u = np.fft.ifft(uhat * lead)
        angle = u.real**2 + u.imag**2
        angle *= -gamma * dt
        np.cos(angle, out=phase.real)
        np.sin(angle, out=phase.imag)
        u *= phase
        return forward_transform(u, trail)

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
    # bound <= limit / 2 never fails _guard's first test.  Its sampled
    # density |u|^2 stays below (bound / L)^2, and so below the looser
    # nx (bound / L)^2 tested here, so a cubic angle under half the largest
    # float keeps the spectrum finite.  Summing |uhat / max|uhat||^2
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
    a history over EVOLVE_HISTORY_LIMIT bytes, or steps x runs x nx over
    EVOLVE_WORK_LIMIT, is rejected before allocation.
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
    history_bytes = 16.0 * len(runs) * n_records * cfg.grid.nx  # complex128 entries
    if history_bytes > EVOLVE_HISTORY_LIMIT:
        raise ValidationError(
            f"{len(runs)} run(s) x {_count(n_records)} records x {cfg.grid.nx} values need "
            f"{_count(history_bytes / 2**20)} MiB, over the {EVOLVE_HISTORY_LIMIT // 2**20} MiB "
            "limit; raise record_every, shorten t_final or lower nx"
        )
    n_steps = n_whole + (remainder != 0.0)
    if n_steps * len(runs) * cfg.grid.nx > EVOLVE_WORK_LIMIT:
        raise ValidationError(
            f"{_count(n_steps)} steps x {len(runs)} run(s) x {cfg.grid.nx} values pass the "
            f"limit of {_count(EVOLVE_WORK_LIMIT)}; raise dt, shorten t_final or lower nx"
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
    three consecutive iterations, or a non-finite difference, raises
    NonContractionError.  Inputs with (n_t + 1) x nx or iterations x nx over
    PICARD_LATTICE_LIMIT are rejected before any work.

    Iterate k + 1 reads iterate k only at its own and earlier time rows, the
    earlier ones through the running trapezoid sum and the last cubic term.
    So one sweep over blocks of PICARD_BLOCK_ROWS rows advances all
    iterations a block at a time; each carries its sum, last cubic term and
    largest row difference to the next block, and a block's phases
    U(t) = exp(i omega t), free evolution, U(-t) and i gamma U(t) serve them
    all.  No (n_t + 1) x nx array is allocated.  Once an iteration's
    largest difference is non-finite, the iterations after it are dropped
    for the rest of the sweep: each would be non-finite too, and the
    verdict, raised at that iteration or before, is already fixed.
    Iterations past a growing streak still run and may overflow, unreported.
    """
    if iterations < 1:
        raise ValidationError("iterations must be >= 1")
    n_whole, remainder = _step_plan(cfg)
    if remainder != 0.0:
        raise ValidationError("picard_iterate needs t_final to be a multiple of dt")
    grid = cfg.grid
    if max(n_whole + 1, iterations) * grid.nx > PICARD_LATTICE_LIMIT:
        raise ValidationError(
            f"a Picard run of max({_count(n_whole + 1)} time rows, {_count(iterations)} "
            f"iterations) x {grid.nx} values passes the {PICARD_LATTICE_LIMIT}-value limit; "
            "shorten t_final, raise dt, lower nx or lower iterations"
        )
    omega = cfg.symbol()
    times = cfg.dt * np.arange(n_whole + 1)
    half_dt = 0.5 * cfg.dt
    phi_hat = spectral_values(phi)
    weight = (1.0 + grid.k**2) ** ((2.0 - cfg.alpha) / 4.0)
    # a block's current and next iterate and its cubic term (then scratch for
    # the difference)
    block = np.empty((3, PICARD_BLOCK_ROWS, grid.nx), dtype=np.complex128)
    partial = np.empty((iterations, grid.nx), dtype=np.complex128)
    g_last = np.empty_like(partial)
    peak = np.zeros(iterations)  # each iteration's largest squared row difference

    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, times.size, PICARD_BLOCK_ROWS):
            rot = 1j * omega * times[start:start + PICARD_BLOCK_ROWS, None]
            np.exp(rot, out=rot)
            n_rows = rot.shape[0]
            free, back, kick = rot * phi_hat, np.conj(rot), 1j * cfg.gamma * rot
            current, nxt, g = block[:, :n_rows]
            current[...] = free  # the free evolution is the first iterate
            for k in range(iterations):
                # g(t) = U(-t) |u|^2 u (t); partial(t_j) = trapezoid sum of g to t_j
                np.multiply(back, cubic_values(current, grid), out=g)
                # trapezoid steps and their running sum, from the block before's;
                # partial(t_1) is the first step, not 0 + step: np.cumsum's bits
                np.add(g[:-1], g[1:], out=nxt[1:])
                if start == 0:
                    nxt[0] = 0.0
                    steps = nxt[1:]
                else:
                    np.add(g_last[k], g[0], out=nxt[0])
                    steps = nxt
                steps *= half_dt
                if start:
                    steps[0] += partial[k]
                np.add.accumulate(steps, axis=0, out=steps)
                g_last[k], partial[k] = g[-1], nxt[-1]
                np.subtract(free, np.multiply(kick, nxt, out=nxt), out=nxt)
                d2 = np.abs(np.subtract(nxt, current, out=g))
                d2 *= d2
                d2 *= weight
                peak[k] = np.maximum(peak[k], np.max(np.sum(d2, axis=1)))  # keeps a NaN
                if not np.isfinite(peak[k]):
                    break  # so in every later block too: peak[k] stays non-finite
                current, nxt = nxt, current

    diffs = [float(d) for d in np.sqrt(peak / grid.length)]
    grow_streak = 0
    for i, d in enumerate(diffs):
        grow_streak = grow_streak + 1 if i and d > diffs[i - 1] else 0
        if grow_streak >= 3:
            raise NonContractionError(
                f"successive Picard differences grew three times in a row: {diffs[i - 3:i + 1]}"
            )
        if not np.isfinite(d):
            raise NonContractionError(
                f"Picard difference {i + 1} is not finite: {diffs[max(i - 3, 0):i + 1]}"
            )
    return PicardResult(Field(grid, current[-1]), np.array(diffs), times)
