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
    inverse_transform,
    spectral_values,
    tail_fraction,
    _frozen_array,
)

from . import spectral

# perfbench/tracer.py wraps fnls.evolution.dealiased_density and
# forward_transform, which nothing here calls any more; the re-exports go
# once the benchmark's tracer tolerates deleted names (ROADMAP item 1)
from .spectral import PAD_FACTOR, dealiased_density, forward_transform  # noqa: F401

TAIL_MASS_LIMIT = 1e-8
CFL_FACTOR = 4.0  # see SimConfig
BLOWUP_THRESHOLD = 1e8  # a row whose conserved bound on |u| passes half of this is rejected

# a Picard run's work per iteration grows as (n_t + 1) x nx and the rows it
# carries from block to block as iterations x nx; each may be at most this
PICARD_LATTICE_LIMIT = 2**22

# time rows per block of the Picard sweep; every iteration's cubic term over a
# block is one cubic_values call, whose density temporaries grow with the block
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
    dispersion symbol and leaves every translation-invariant norm unchanged
    (the default 0 is the plain equation).  On a carrier grid the symbol is
    evaluated at its frequencies k + N, so the run evolves the envelope
    e^(-iNx) u.
    """

    alpha: float
    gamma: float
    dt: float
    t_final: float
    grid: Grid
    record_every: int = 1
    frame_velocity: float = 0.0
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
        peak = float(np.max(np.abs(self.symbol())))
        if abs(self.dt) * peak > 2.0 * np.pi * CFL_FACTOR + 1e-12:
            raise ValidationError(
                f"dt*max|symbol| = {abs(self.dt) * peak:.3g} exceeds "
                f"2*pi*CFL_FACTOR = {2.0 * np.pi * CFL_FACTOR:.3g}; reduce dt"
            )

    def symbol(self) -> np.ndarray:
        """Dispersion symbol |k|^alpha + frame_velocity*k on the grid's
        frequencies; one that overflows is inf, and the accuracy guard names it."""
        k = self.grid.k
        with np.errstate(over="ignore"):
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
        if (self.grid, self.values.shape) != (other.grid, other.values.shape):
            raise ValidationError("trajectories differ in grid or record count")
        return Trajectory(self.times, self.grid, self.values - other.values)


def _split_step(symbol: np.ndarray, gamma: float, dt: float, dx):
    """The Strang step of size dt as a function that advances stacked
    (rows, nx) spectral coefficients in place.  symbol holds each row's
    dispersion symbol and dx is the (rows, 1) column of grid spacings.

    Two FFTs a step, both of size nx and both through the pair in
    fnls.spectral: an inverse transform gives the samples u, the cubic phase
    cos + i sin of the real angle -gamma dt |u|^2 (|u|^2 as re^2 + im^2)
    multiplies them, and one forward transform returns to spectral space.
    The transforms' scalings ride on the half-phases exp(i dt symbol / 2):
    the leading one is divided by dx and the trailing one, times dx, is the
    forward transform's scaling.  The lead product and the samples share one
    buffer, transformed in place; the phase buffer holds the squares of the
    samples' parts until it holds the phase, and the angle has its own.
    All are made here, so a step allocates nothing.  Each FFT covers all
    rows in one call and no operation mixes rows, so a row computes exactly
    what it would alone.
    """
    half_phase = np.exp(0.5j * dt * symbol)
    if gamma == 0.0:
        def linear(uhat: np.ndarray) -> None:
            uhat *= half_phase
            uhat *= half_phase

        return linear
    lead = half_phase / dx
    trail = np.multiply(half_phase, dx, out=half_phase)  # half_phase is not kept
    u = np.empty_like(lead)
    phase = np.empty_like(lead)
    angle = np.empty(lead.shape)
    # each complex buffer's (re, im) pairs as one real array, and phase's parts
    u_pairs, phase_pairs = u.view(np.float64), phase.view(np.float64)
    phase_re, phase_im = phase.real, phase.imag
    scale = -gamma * dt

    def step(uhat: np.ndarray) -> None:
        spectral.ifft(np.multiply(uhat, lead, out=u), out=u)
        # re^2 and im^2 land in phase's parts, its scratch until cos and sin
        np.multiply(u_pairs, u_pairs, out=phase_pairs)
        np.multiply(np.add(phase_re, phase_im, out=angle), scale, out=angle)
        np.cos(angle, out=phase_re)
        np.sin(angle, out=phase_im)
        np.multiply(u, phase, out=u)
        np.multiply(spectral.fft(u, out=u), trail, out=uhat)

    return step


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

    Raises BlowUpError before the first step if the data could leave the
    trusted range (see evolve_together) and, when cfg.check_tail is set,
    WrapAroundError if a recorded state accumulates mass near the periodic
    boundary.
    """
    return evolve_together([(phi, cfg)])[0]


def evolve_together(runs: Sequence[tuple[Field, SimConfig]]) -> list[Trajectory]:
    """Integrate several (phi, cfg) problems in one loop, one trajectory each.

    The coefficients are stacked into a (runs, nx) array, so every step
    costs one call per numpy operation whatever the number of runs.  The
    runs must share nx, dt, t_final, record_every and gamma; alpha, the
    grid length and carrier, frame_velocity and check_tail may differ.  Each
    trajectory is bit-identical to evolve(phi, cfg) for its run, and a run
    that fails raises what evolve would raise for it, naming the run by its
    row, alpha and carrier.
    Each trajectory's values are a row of one (runs, records, nx) history;
    a history over EVOLVE_HISTORY_LIMIT bytes, or steps x runs x nx over
    EVOLVE_WORK_LIMIT, is rejected before allocation.
    Blow-up is decided once, before the first step: the step conserves each
    row's sum |uhat|^2, so |u| <= sqrt(nx sum |uhat|^2) / L for all time,
    and a row whose data are not finite, whose bound passes half of
    BLOWUP_THRESHOLD or whose cubic angle could overflow raises BlowUpError.
    """
    runs = list(runs)
    if not runs:
        raise ValidationError("evolve_together needs at least one run")
    cfgs = [cfg for _, cfg in runs]
    if len({(c.grid.nx, c.dt, c.t_final, c.record_every, c.gamma) for c in cfgs}) != 1:
        raise ValidationError("runs must share nx, dt, t_final, record_every and gamma")
    for phi, cfg in runs:
        if phi.grid != cfg.grid:
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

    def where(row: int) -> str:
        c = cfgs[row]
        return f"run {row} of {len(cfgs)}, alpha {c.alpha:g}, carrier {c.grid.carrier:g}"

    _reject_blow_up(uhat, cfgs, where)
    symbol = np.stack([c.symbol() for c in cfgs])
    dx = np.array([[c.grid.dx] for c in cfgs])
    tail = [row for row, c in enumerate(cfgs) if c.check_tail]
    history = np.empty((len(runs), n_records, cfg.grid.nx), dtype=np.complex128)
    times: list[float] = []

    def record(t: float) -> None:
        history[:, len(times)] = uhat
        times.append(t)
        if not tail:
            return
        fracs = tail_fraction(inverse_transform(uhat[tail], dx[tail]))
        over = np.flatnonzero(fracs > TAIL_MASS_LIMIT)
        if over.size:
            raise WrapAroundError(
                f"{where(tail[over[0]])}: tail mass fraction {fracs[over[0]]:.3g} in the outer "
                f"10% of the domain at t={t:.6g} exceeds {TAIL_MASS_LIMIT:.0e}"
            )

    step = _split_step(symbol, cfg.gamma, cfg.dt, dx)
    record(0.0)
    for n in range(1, n_whole + 1):
        step(uhat)
        if n % cfg.record_every == 0:
            record(n * cfg.dt)
    if remainder != 0.0:
        step = None  # its buffers go before the last step makes its own
        _split_step(symbol, cfg.gamma, remainder, dx)(uhat)
    if final_record:
        record(cfg.t_final if remainder != 0.0 else n_whole * cfg.dt)
    return [Trajectory(times, c.grid, history[row]) for row, c in enumerate(cfgs)]


def _reject_blow_up(uhat: np.ndarray, cfgs: list[SimConfig], where) -> None:
    """BlowUpError naming where(row) for the first row of uhat whose data
    are not finite, whose conserved bound on |u| passes half of
    BLOWUP_THRESHOLD or whose cubic angle could overflow (see
    evolve_together); its temporaries go when it returns."""
    # The step conserves each row's sum |uhat|^2 to round-off, so |u| stays
    # below bound = sqrt(nx sum |uhat|^2) / L and the cubic angle below the
    # looser |gamma dt| nx bound^2 for all time.  Summing |uhat / max|uhat||^2
    # cannot overflow or underflow; non-finite data fail both tests.
    cfg = cfgs[0]
    peak = np.max(np.abs(uhat), axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        unit = uhat / np.where(peak > 0.0, peak, 1.0)[:, None]
        sums = np.sum(unit.real**2 + unit.imag**2, axis=-1)
        bound = peak * np.sqrt(cfg.grid.nx * sums) / [c.grid.length for c in cfgs]
        angle = abs(cfg.gamma * cfg.dt) * cfg.grid.nx * bound**2
    fits = (bound <= 0.5 * BLOWUP_THRESHOLD) & (angle <= 0.5 * np.finfo(float).max)
    failed = np.flatnonzero(~fits)
    if failed.size:
        row = int(failed[0])
        if not np.all(np.isfinite(uhat[row])):
            raise BlowUpError(f"{where(row)}: non-finite spectrum")
        if not bound[row] <= 0.5 * BLOWUP_THRESHOLD:
            raise BlowUpError(f"{where(row)}: |u| <= sqrt(nx sum |uhat|^2) / L = {bound[row]:.3g}, "
                              f"over BLOWUP_THRESHOLD / 2 = {0.5 * BLOWUP_THRESHOLD:.3g}")
        raise BlowUpError(f"{where(row)}: cubic angle bound {angle[row]:.3g} may overflow")


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
    all.  These, the iterates, the cubic term and the difference live in
    block buffers made once; an iteration's cubic term over a block is one
    cubic_values call, run in the buffer it fills and transformed through
    the FFT pair of fnls.spectral.  No (n_t + 1) x nx array is allocated.
    Once an iteration's largest difference is non-finite, the iterations
    after it are dropped for the rest of the sweep: each would be
    non-finite too, and the verdict, raised at that iteration or before, is
    already fixed.
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
    # kept block buffers: the current and next iterate, the cubic term (then
    # the difference), the rotation and its three products; real ones for the
    # angle, its cosine and sine and the squared difference
    block = np.empty((7, PICARD_BLOCK_ROWS, grid.nx), dtype=np.complex128)
    real = np.empty((4, PICARD_BLOCK_ROWS, grid.nx))
    row_sums = np.empty(PICARD_BLOCK_ROWS)
    partial = np.empty((iterations, grid.nx), dtype=np.complex128)
    g_last = np.empty_like(partial)
    peak = np.zeros(iterations)  # each iteration's largest squared row difference

    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, times.size, PICARD_BLOCK_ROWS):
            t_col = times[start:start + PICARD_BLOCK_ROWS, None]
            n_rows = t_col.shape[0]
            current, nxt, g, rot, free, back, kick = block[:, :n_rows]
            angle, cos, sin, d2 = real[:, :n_rows]
            sums = row_sums[:n_rows]
            np.multiply(omega, t_col, out=angle)
            np.cos(angle, out=cos)
            np.sin(angle, out=sin)
            np.add(cos, np.multiply(1j, sin, out=rot), out=rot)  # exp(i angle)
            np.multiply(rot, phi_hat, out=free)
            np.conjugate(rot, out=back)
            np.multiply(1j * cfg.gamma, rot, out=kick)
            current[...] = free  # the free evolution is the first iterate
            for k in range(iterations):
                # g(t) = U(-t) |u|^2 u (t); partial(t_j) = trapezoid sum of g to t_j
                np.multiply(back, cubic_values(current, grid, out=g), out=g)
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
                for r in range(1, steps.shape[0]):  # np.add.accumulate's order, faster
                    np.add(steps[r - 1], steps[r], out=steps[r])
                g_last[k], partial[k] = g[-1], nxt[-1]
                np.subtract(free, np.multiply(kick, nxt, out=nxt), out=nxt)
                np.abs(np.subtract(nxt, current, out=g), out=d2)
                d2 *= d2
                d2 *= weight
                np.sum(d2, axis=1, out=sums)
                peak[k] = np.maximum(peak[k], np.max(sums))  # keeps a NaN
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
