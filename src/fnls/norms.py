"""Conserved quantities, Sobolev norms, and discrete space-time norms.

The space-time norm weights values on a (tau, xi) lattice by
(1+|xi|)^s (1+|tau -/+ |xi|^alpha|)^b and integrates with Riemann weights
dtau*dxi.  mass, energy and sobolev_norm reduce along the last axis: a Field
gives one float, and a Trajectory one value per record, each bit-equal to
that record's as a Field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .spectral import physical_values, spectral_values, _frozen_array


def _per_record(total):
    return float(total) if np.ndim(total) == 0 else total


def mass(f):
    """Integral of |u|^2 over the torus."""
    return _per_record(np.sum(np.abs(f.values) ** 2, axis=-1) / f.grid.length)


def energy(f, alpha: float, gamma: float):
    """Conserved energy (1/2)||D|^(alpha/2)u|_2^2 - (gamma/4)|u|_4^4.

    This is the first integral of i u_t + (-Delta)^(alpha/2) u = gamma|u|^2 u
    under the propagator convention exp(i|k|^alpha t): differentiating along
    the flow gives dE/dt = 0 only with the minus sign on the quartic term.
    """
    uhat = spectral_values(f)
    u = physical_values(f)
    kinetic = 0.5 * np.sum(np.abs(f.grid.k) ** alpha * np.abs(uhat) ** 2, axis=-1)
    kinetic /= f.grid.length
    quartic = 0.25 * gamma * f.grid.dx * np.sum(np.abs(u) ** 4, axis=-1)
    return _per_record(kinetic - quartic)


def sobolev_norm(f, s: float):
    """H^s norm; s = 0 reduces to the square root of the mass."""
    # squared in place: a trajectory's norm holds one real temporary
    weighted = np.abs(spectral_values(f))
    weighted *= weighted
    weighted *= (1.0 + f.grid.k**2) ** s
    return _per_record(np.sqrt(np.sum(weighted, axis=-1) / f.grid.length))


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
    """Values on a uniform (tau, xi) lattice, indexed [tau, xi]: real input
    stays real (float64), complex input is stored as complex128."""

    tau: np.ndarray
    xi: np.ndarray
    values: np.ndarray
    dtau: float = field(init=False)
    dxi: float = field(init=False)

    def __post_init__(self):
        dtau = _uniform_spacing(self.tau, "tau lattice")
        dxi = _uniform_spacing(self.xi, "xi lattice")
        dtype = np.complex128 if np.iscomplexobj(self.values) else np.float64
        vals = np.asarray(self.values, dtype=dtype)
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
