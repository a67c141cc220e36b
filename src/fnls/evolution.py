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
from typing import Iterator, Sequence

import numpy as np

from .errors import BlowUpError, NonContractionError, ValidationError
from .spectral import PASS_OVERHEAD, STEP_FIELDS, _count, admit
from .spectral import Field, Grid, cubic_values, _frozen_array
from .symbols import _check_alpha
from .norms import _sobolev_weight

from . import spectral

# perfbench/tracer.py wraps dealiased_density, the transforms and
# spectral_values here, which nothing here calls any more; the re-exports
# go once the benchmark's tracer tolerates deleted names (ROADMAP item 1)
from .spectral import dealiased_density, forward_transform, inverse_transform  # noqa: F401
from .spectral import spectral_values  # noqa: F401

CFL_FACTOR = 4.0  # see SimConfig
BLOWUP_THRESHOLD = 1e8  # a row whose conserved bound on |u| passes half of this is rejected

# time rows per block of the Picard sweep; every iteration's cubic term over a
# block is one cubic_values call, whose density temporaries grow with the block
PICARD_BLOCK_ROWS = 16


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

    def __post_init__(self):
        _check_alpha(self.alpha)
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
    what it would alone.  A free run (gamma = 0) takes the same step: its
    phase is exactly 1, so it adds only the transforms' round-off.
    """
    half_phase = np.exp(0.5j * dt * symbol)
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


def _step_plan(cfg: SimConfig) -> tuple[int, float, int]:
    """Number of whole steps, the (possibly zero) shrunken final step and
    the number of records: one after every record_every-th step (step 0 is
    t = 0), and one at the end when the last step is not among them."""
    ratio = cfg.t_final / cfg.dt
    if not np.isfinite(ratio):
        raise ValidationError(f"t_final / dt overflows ({cfg.t_final:g} / {cfg.dt:g}); raise dt")
    n_whole = int(np.floor(ratio + 1e-9))
    remainder = cfg.t_final - n_whole * cfg.dt
    if abs(remainder) <= 1e-9 * abs(cfg.dt):
        remainder = 0.0
    final_record = remainder != 0.0 or n_whole % cfg.record_every != 0
    return n_whole, remainder, n_whole // cfg.record_every + 1 + final_record


def evolve(phi: Field, cfg: SimConfig) -> Trajectory:
    """Integrate the initial value problem, recording every record_every
    steps: evolve_records' records copied into one (records, nx) history,
    priced at each one's coefficients and time."""
    records = evolve_records([(phi, cfg)], 16 * (cfg.grid.nx + 1))
    n_records = _step_plan(cfg)[2]
    times, values = np.empty(n_records), np.empty((n_records, cfg.grid.nx), dtype=np.complex128)
    for n, (t, coeffs) in enumerate(records):
        times[n], values[n] = t, coeffs[0]
    return Trajectory(times, cfg.grid, values)


def evolve_records(
    runs: Sequence[tuple[Field, SimConfig]], record_bytes: int = 0, workspace_bytes: int = 0,
    remedy: str = "raise dt or record_every, or lower t_final or nx",
) -> Iterator[tuple[float, np.ndarray]]:
    """Integrate several (phi, cfg) problems in one loop, yielding (t,
    coefficients) at each record, a read-only view of the (runs, nx) buffer
    stepped in place: a consumer copies what it keeps.  The runs share nx,
    dt, t_final, record_every and gamma; no operation mixes rows, so each
    is bit-identical to its run alone.  This is the one way into the
    stepping loop, admitted as it is called: STEP_FIELDS fields a run, the
    record_bytes a consumer keeps of each record and the workspace_bytes it
    holds besides; runs x nx + PASS_OVERHEAD work a step; a refusal names
    the caller's remedy, in its own options.  A row that could
    blow up raises BlowUpError before the first step, naming its run
    (_reject_blow_up)."""
    runs = list(runs)
    if not runs:
        raise ValidationError("evolve_records needs at least one run")
    cfgs = [cfg for _, cfg in runs]
    if len({(c.grid.nx, c.dt, c.t_final, c.record_every, c.gamma) for c in cfgs}) != 1:
        raise ValidationError("runs must share nx, dt, t_final, record_every and gamma")
    for phi, cfg in runs:
        if phi.grid != cfg.grid:
            raise ValidationError("initial data grid does not match config grid")
    cfg = cfgs[0]
    n_whole, remainder, n_records = _step_plan(cfg)
    n_steps = n_whole + (remainder != 0.0)
    rows, nx = len(runs), cfg.grid.nx
    admit(f"{_count(n_steps)} steps of {rows} x {nx} values and {_count(n_records)} records",
          remedy,
          16 * rows * STEP_FIELDS * nx + n_records * record_bytes + workspace_bytes,
          n_steps * (rows * nx + PASS_OVERHEAD))

    def stream():
        uhat = np.stack([phi.values for phi, _ in runs])
        _reject_blow_up(uhat, cfgs)
        symbol = np.stack([c.symbol() for c in cfgs])
        dx = np.array([[c.grid.dx] for c in cfgs])
        view = uhat.view()
        view.setflags(write=False)
        step = _split_step(symbol, cfg.gamma, cfg.dt, dx)
        records = 1
        yield 0.0, view
        for n in range(1, n_whole + 1):
            step(uhat)
            if n % cfg.record_every == 0:
                records += 1
                yield n * cfg.dt, view
        if remainder != 0.0:
            step = None  # its buffers go before the last step makes its own
            _split_step(symbol, cfg.gamma, remainder, dx)(uhat)
        if records < n_records:  # the end's own record
            yield (cfg.t_final if remainder != 0.0 else n_whole * cfg.dt), view

    return stream()


def run_name(cfgs: list[SimConfig], row: int) -> str:
    """How an error names row of a batch of runs with configs cfgs."""
    c = cfgs[row]
    return f"run {row} of {len(cfgs)}, alpha {c.alpha:g}, carrier {c.grid.carrier:g}"


def _reject_blow_up(uhat: np.ndarray, cfgs: list[SimConfig]) -> None:
    """BlowUpError naming its run (run_name) for the first row of uhat with
    data that are not finite, a conserved |u| bound over BLOWUP_THRESHOLD / 2
    or a cubic angle that could overflow; its temporaries go as it returns."""
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
        where = run_name(cfgs, row)
        if not np.all(np.isfinite(uhat[row])):
            raise BlowUpError(f"{where}: non-finite spectrum")
        if not bound[row] <= 0.5 * BLOWUP_THRESHOLD:
            raise BlowUpError(f"{where}: |u| <= sqrt(nx sum |uhat|^2) / L = {bound[row]:.3g}, "
                              f"over BLOWUP_THRESHOLD / 2 = {0.5 * BLOWUP_THRESHOLD:.3g}")
        raise BlowUpError(f"{where}: cubic angle bound {angle[row]:.3g} may overflow")


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
    NonContractionError.  The call is admitted (fnls.spectral.admit) before
    any work: 11 block buffers, 2 rows and 4 values an iteration carries and
    the times; blocks x iterations x (a block's values + PASS_OVERHEAD) units.

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
    n_whole, remainder, _ = _step_plan(cfg)
    if remainder != 0.0:
        raise ValidationError("picard_iterate needs t_final to be a multiple of dt")
    grid, n_rows = cfg.grid, n_whole + 1
    n_blocks = -(-n_rows // PICARD_BLOCK_ROWS)
    admit(f"{_count(n_rows)} Picard rows x {_count(iterations)} iterations x {grid.nx} values",
          "raise dt or lower t_final, nx or iterations",
          16 * (11 * PICARD_BLOCK_ROWS * grid.nx + iterations * (2 * grid.nx + 4)) + 8 * n_rows,
          n_blocks * iterations * (PICARD_BLOCK_ROWS * grid.nx + PASS_OVERHEAD))
    omega = cfg.symbol()
    times = cfg.dt * np.arange(n_whole + 1)
    half_dt = 0.5 * cfg.dt
    phi_hat = phi.values
    weight = _sobolev_weight(grid, (2.0 - cfg.alpha) / 4.0)
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
