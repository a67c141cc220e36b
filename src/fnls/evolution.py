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
    Field,
    Grid,
    dealiased_density,
    cubic_values,
    forward_transform,
    inverse_transform,
    physical_values,
    spectral_values,
)

TAIL_MASS_LIMIT = 1e-8

# picard_iterate keeps several (n_t + 1) x nx complex histories; one of them
# may take at most this many bytes
PICARD_HISTORY_LIMIT = 64 * 2**20


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one evolution run.

    dt may be negative (backward integration) provided t_final has the same
    sign.  The accuracy guard dt * max|k|^alpha <= 2*pi*cfl_factor concerns
    resolution of the fastest linear phase only; the linear step itself is
    exact and unconditionally stable, so the default factor of 4 merely
    flags grossly unresolved configurations.  frame_velocity = v evolves
    w(t, x) = u(t, x + v t), a change of frame that adds v*k to the
    dispersion symbol and leaves every translation-invariant norm unchanged;
    the default 0 is the plain equation.
    """

    alpha: float
    gamma: float
    dt: float
    t_final: float
    grid: Grid
    record_every: int = 1
    cfl_factor: float = 4.0
    frame_velocity: float = 0.0
    blowup_threshold: float = 1e8
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
        peak = float(np.max(np.abs(self.grid.k) ** self.alpha))
        if abs(self.dt) * peak > 2.0 * np.pi * self.cfl_factor + 1e-12:
            raise ValidationError(
                f"dt*max|k|^alpha = {abs(self.dt) * peak:.3g} exceeds "
                f"2*pi*cfl_factor = {2.0 * np.pi * self.cfl_factor:.3g}; "
                "reduce dt or raise cfl_factor"
            )

    def symbol(self) -> np.ndarray:
        """Linear dispersion symbol |k|^alpha + frame_velocity*k on the lattice."""
        k = self.grid.k
        return np.abs(k) ** self.alpha + self.frame_velocity * k


@dataclass(frozen=True)
class Trajectory:
    """States recorded at uniformly spaced times (monotone in the sign of dt)."""

    times: np.ndarray
    states: Sequence[Field]

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        if len(self.states) != self.times.size:
            raise ValidationError("times and states length mismatch")
        if len({(s.grid.nx, s.grid.length) for s in self.states}) != 1:
            raise ValidationError("all states must share one grid")

    @property
    def grid(self) -> Grid:
        return self.states[0].grid


def _strang_kernel(uhat: np.ndarray, cfg: SimConfig, dt: float, half_phase=None):
    """One split step on spectral coefficients; returns new coefficients."""
    if half_phase is None:
        half_phase = np.exp(0.5j * dt * cfg.symbol())
    uhat = uhat * half_phase
    if cfg.gamma != 0.0:
        grid = cfg.grid
        density = dealiased_density(uhat, grid)
        u = inverse_transform(uhat, grid)
        u = u * np.exp(-1j * cfg.gamma * dt * density)
        uhat = forward_transform(u, grid)
    return uhat * half_phase


def _guard(uhat: np.ndarray, cfg: SimConfig, t: float) -> None:
    if not np.all(np.isfinite(uhat)):
        raise BlowUpError(t, "non-finite spectrum")
    # |u|_inf <= (1/L) sum |uhat| gives a cheap sufficient bound; only fall
    # back to the exact samples when it is exceeded
    bound = float(np.sum(np.abs(uhat))) / cfg.grid.length
    if bound > cfg.blowup_threshold:
        peak = float(np.max(np.abs(inverse_transform(uhat, cfg.grid))))
        if peak > cfg.blowup_threshold:
            raise BlowUpError(t, f"|u| reached {peak:.3g}")


def _check_tail(state: Field, t: float) -> None:
    from .spectral import tail_fraction

    frac = tail_fraction(physical_values(state))
    if frac > TAIL_MASS_LIMIT:
        raise WrapAroundError(
            f"tail mass fraction {frac:.3g} in the outer 10% of the domain "
            f"at t={t:.6g} exceeds {TAIL_MASS_LIMIT:.0e}"
        )


def _step_plan(cfg: SimConfig):
    """Number of whole steps plus the (possibly zero) shrunken final step."""
    ratio = cfg.t_final / cfg.dt
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
    if phi.grid is not cfg.grid and (phi.grid.nx, phi.grid.length) != (
        cfg.grid.nx,
        cfg.grid.length,
    ):
        raise ValidationError("initial data grid does not match config grid")
    uhat = spectral_values(phi)
    half_phase = np.exp(0.5j * cfg.dt * cfg.symbol())

    n_whole, remainder = _step_plan(cfg)
    times = [0.0]
    states = [Field.spectral(cfg.grid, uhat)]
    if cfg.check_tail:
        _check_tail(states[0], 0.0)

    for n in range(1, n_whole + 1):
        uhat = _strang_kernel(uhat, cfg, cfg.dt, half_phase)
        t = n * cfg.dt
        _guard(uhat, cfg, t)
        if n % cfg.record_every == 0:
            state = Field.spectral(cfg.grid, uhat)
            times.append(t)
            states.append(state)
            if cfg.check_tail:
                _check_tail(state, t)
    if remainder != 0.0:
        uhat = _strang_kernel(uhat, cfg, remainder)
        _guard(uhat, cfg, cfg.t_final)
        times.append(cfg.t_final)
        states.append(Field.spectral(cfg.grid, uhat))
    elif n_whole % cfg.record_every != 0:
        times.append(n_whole * cfg.dt)
        states.append(Field.spectral(cfg.grid, uhat))
    return Trajectory(np.array(times), states)


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

    phi_hat = spectral_values(phi)
    free = np.exp(1j * omega * times[:, None]) * phi_hat[None, :]
    current = free.copy()

    weight = (1.0 + grid.k**2) ** s_diff

    def hs_diff(a, b):
        d2 = weight[None, :] * np.abs(a - b) ** 2
        return float(np.sqrt(np.max(np.sum(d2, axis=1)) / grid.length))

    diffs = []
    grow_streak = 0
    for _ in range(iterations):
        # g(t) = U(-t) |u|^2 u (t) on the lattice, then cumulative trapezoid
        g = np.empty_like(current)
        for j in range(times.size):
            g[j] = np.exp(-1j * omega * times[j]) * cubic_values(current[j], grid)
        partial = np.zeros_like(current)
        np.cumsum(0.5 * cfg.dt * (g[:-1] + g[1:]), axis=0, out=partial[1:])
        nxt = free - 1j * cfg.gamma * np.exp(1j * omega * times[:, None]) * partial
        diffs.append(hs_diff(nxt, current))
        if len(diffs) >= 2 and diffs[-1] > diffs[-2]:
            grow_streak += 1
            if grow_streak >= 3:
                raise NonContractionError(
                    "successive Picard differences grew three times in a row: "
                    f"{diffs[-4:]}"
                )
        else:
            grow_streak = 0
        current = nxt
    return PicardResult(
        final=Field.spectral(grid, current[-1]),
        difference_norms=np.array(diffs),
        times=times,
    )
