"""Conserved quantities, Sobolev norms, and discrete space-time norms.

The space-time norm weights the (tau, xi) transform by
(1+|xi|)^s (1+|tau -/+ |xi|^alpha|)^b and integrates with Riemann weights
dtau*dxi.  Restriction to a time interval is approximated by windowing the
trajectory with a cutoff equal to 1 on the middle half of the span; the
infimum-over-extensions norm itself has no usable discrete analogue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .spectral import Field, physical_values, spectral_values, _frozen_array

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .evolution import Trajectory


def mass(f: Field) -> float:
    """Integral of |u|^2 over the torus."""
    return float(np.sum(np.abs(f.values) ** 2) / f.grid.length)


def energy(f: Field, alpha: float, gamma: float) -> float:
    """Conserved energy (1/2)||D|^(alpha/2)u|_2^2 - (gamma/4)|u|_4^4.

    This is the first integral of i u_t + (-Delta)^(alpha/2) u = gamma|u|^2 u
    under the propagator convention exp(i|k|^alpha t): differentiating along
    the flow gives dE/dt = 0 only with the minus sign on the quartic term.
    """
    uhat = spectral_values(f)
    u = physical_values(f)
    kinetic = 0.5 * np.sum(np.abs(f.grid.k) ** alpha * np.abs(uhat) ** 2)
    kinetic /= f.grid.length
    quartic = 0.25 * gamma * f.grid.dx * np.sum(np.abs(u) ** 4)
    return float(kinetic - quartic)


def sobolev_norm(f: Field, s: float) -> float:
    """H^s norm; s = 0 reduces to the square root of the mass."""
    uhat = spectral_values(f)
    weighted = (1.0 + f.grid.k**2) ** s * np.abs(uhat) ** 2
    return float(np.sqrt(np.sum(weighted) / f.grid.length))


def _uniform_spacing(lattice: np.ndarray, name: str) -> float:
    lattice = np.asarray(lattice, dtype=float)
    if lattice.ndim != 1 or lattice.size < 2:
        raise ValidationError(f"{name} must be a 1-d lattice with >= 2 nodes")
    steps = np.diff(lattice)
    d = steps[0]
    if d <= 0 or np.any(np.abs(steps - d) > 1e-9 * abs(d)):
        raise ValidationError(f"{name} must be uniformly spaced and increasing")
    return float(d)


@dataclass(frozen=True)
class SpaceTimeField:
    """Complex values on a uniform (tau, xi) lattice, indexed [tau, xi]."""

    tau: np.ndarray
    xi: np.ndarray
    values: np.ndarray
    dtau: float = field(init=False)
    dxi: float = field(init=False)

    def __post_init__(self):
        dtau = _uniform_spacing(self.tau, "tau lattice")
        dxi = _uniform_spacing(self.xi, "xi lattice")
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.tau.size, self.xi.size):
            raise ValidationError(
                f"values shape {vals.shape} does not match lattice "
                f"({self.tau.size}, {self.xi.size})"
            )
        object.__setattr__(self, "tau", _frozen_array(self.tau, float))
        object.__setattr__(self, "xi", _frozen_array(self.xi, float))
        object.__setattr__(self, "values", _frozen_array(vals))
        object.__setattr__(self, "dtau", dtau)
        object.__setattr__(self, "dxi", dxi)

    @property
    def cell(self) -> float:
        """Quadrature weight of one lattice cell."""
        return self.dtau * self.dxi


def raised_cosine_window(n: int) -> np.ndarray:
    """Tukey-style cutoff: 1 on the middle half, cosine taper to 0 outside."""
    t = np.arange(n) / n
    w = np.ones(n)
    lo = t < 0.25
    hi = t >= 0.75
    w[lo] = 0.5 * (1.0 - np.cos(np.pi * t[lo] / 0.25))
    w[hi] = 0.5 * (1.0 - np.cos(np.pi * (1.0 - t[hi]) / 0.25))
    return w


def smooth_bump_window(n: int) -> np.ndarray:
    """C-infinity cutoff: 1 on the middle half, exp(1 - 1/(1-r^2)) taper."""
    t = np.arange(n) / n
    w = np.ones(n)
    r = np.zeros(n)
    lo = t < 0.25
    hi = t >= 0.75
    r[lo] = 1.0 - t[lo] / 0.25
    r[hi] = 1.0 - (1.0 - t[hi]) / 0.25
    taper = lo | hi
    rr = np.clip(r[taper], 0.0, 1.0 - 1e-12)
    w[taper] = np.exp(1.0 - 1.0 / (1.0 - rr**2))
    return w


WINDOWS = {
    "raised_cosine": raised_cosine_window,
    "smooth_bump": smooth_bump_window,
    "none": np.ones,
}


def window_trajectory(traj: "Trajectory", window: str = "raised_cosine") -> SpaceTimeField:
    """Time-windowed space-time transform of a trajectory.

    Multiplies u(t, x) by the named cutoff, applies the 2-d discrete
    transform with Riemann normalization dt*dx, and returns the coefficients
    on the induced lattice (dtau = 2*pi / span, span = n_t * dt_record).
    Both lattices are returned in increasing order.
    """
    if window not in WINDOWS:
        raise ValidationError(f"unknown window {window!r}; use one of {sorted(WINDOWS)}")
    times = np.asarray(traj.times, dtype=float)
    if times.size < 8:
        raise ValidationError("trajectory too short to window (need >= 8 records)")
    dt_rec = _uniform_spacing(times, "trajectory times")
    grid = traj.states[0].grid
    u = np.stack([physical_values(s) for s in traj.states])

    psi = WINDOWS[window](times.size)
    f = np.fft.fft2(u * psi[:, None]) * (dt_rec * grid.dx)

    n_t = times.size
    tau = (2.0 * np.pi / (n_t * dt_rec)) * np.fft.fftfreq(n_t, 1.0 / n_t)
    order_t = np.argsort(tau)
    order_x = np.argsort(grid.k)
    return SpaceTimeField(tau[order_t], grid.k[order_x], f[np.ix_(order_t, order_x)])


def xsb_norm(
    f: SpaceTimeField, s: float, b: float, alpha: float, sign: str = "-"
) -> float:
    """Weighted lattice L^2 norm with weights (1+|xi|)^s (1+|tau -/+ |xi|^a|)^b.

    sign '-' weighs distance to tau = +|xi|^alpha (fields evolving like u);
    sign '+' weighs distance to tau = -|xi|^alpha (transforms of conjugates).
    """
    if sign not in ("-", "+"):
        raise ValidationError("sign must be '-' or '+'")
    disp = np.abs(f.xi) ** alpha
    if sign == "-":
        modulation = f.tau[:, None] - disp[None, :]
    else:
        modulation = f.tau[:, None] + disp[None, :]
    weight = (1.0 + np.abs(f.xi)) ** (2.0 * s) * (1.0 + np.abs(modulation)) ** (
        2.0 * b
    )
    total = np.sum(weight * np.abs(f.values) ** 2) * f.cell
    return float(np.sqrt(total))
