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
from .spectral import physical_values, _frozen_array, _per_record


def mass(f):
    """Integral of |u|^2 over the torus."""
    return _per_record(np.sum(np.abs(f.values) ** 2, axis=-1) / f.grid.length)


def energy(f, alpha: float, gamma: float):
    """Conserved energy (1/2)||D|^(alpha/2)u|_2^2 - (gamma/4)|u|_4^4.

    This is the first integral of i u_t + (-Delta)^(alpha/2) u = gamma|u|^2 u
    under the propagator convention exp(i|k|^alpha t): differentiating along
    the flow gives dE/dt = 0 only with the minus sign on the quartic term.
    """
    uhat = f.values
    u = physical_values(f)
    kinetic = 0.5 * np.sum(np.abs(f.grid.k) ** alpha * np.abs(uhat) ** 2, axis=-1)
    kinetic /= f.grid.length
    quartic = 0.25 * gamma * f.grid.dx * np.sum(np.abs(u) ** 4, axis=-1)
    return _per_record(kinetic - quartic)


def sobolev_norm(f, s: float):
    """H^s norm; s = 0 reduces to the square root of the mass."""
    grid = f.grid
    return _per_record(_weighted_norm(f.values, _sobolev_weight(grid, s), grid.length))


def _sobolev_weight(grid, s: float) -> np.ndarray:
    """(1 + k^2)^s at the grid's frequencies: H^s's weight on |uhat|^2."""
    return (1.0 + grid.k**2) ** s


def _weighted_norm(uhat: np.ndarray, weight: np.ndarray, length) -> np.ndarray:
    """sqrt(sum weight |uhat|^2 / length) along the last axis, each row's
    bit-equal to its own; rows of several grids take their stacked weights
    and an array of lengths."""
    # squared in place: a trajectory's norm holds one real temporary
    weighted = np.abs(uhat)
    weighted *= weighted
    weighted *= weight
    return np.sqrt(np.sum(weighted, axis=-1) / length)


@dataclass(frozen=True)
class SpaceTimeField:
    """Values on a uniform (tau, xi) lattice, stored by xi column: column j
    holds values[r, j] at tau0 + dtau * (first[j] + r), and every other cell
    is exactly zero; `tau` builds the n_tau nodes on demand.  A dense field
    is first = 0 with n_tau rows.  Real values stay real (float64), complex
    ones are stored as complex128."""

    tau0: float
    dtau: float
    n_tau: int
    xi: np.ndarray
    first: np.ndarray
    values: np.ndarray
    dxi: float = field(init=False)

    def __post_init__(self):
        if not (np.isfinite(self.tau0) and 0.0 < self.dtau < np.inf and self.n_tau >= 2):
            raise ValidationError("tau lattice must be finite tau0, dtau > 0 and n_tau >= 2 nodes")
        steps = np.diff(np.asarray(self.xi, dtype=float))
        uniform = steps.ndim == 1 and steps.size > 0 and steps[0] > 0
        if not (uniform and np.all(np.abs(steps - steps[0]) <= 1e-9 * steps[0])):
            raise ValidationError("xi lattice must be 1-d, uniformly spaced and increasing")
        object.__setattr__(self, "dxi", float(steps[0]))
        dtype = np.complex128 if np.iscomplexobj(self.values) else np.float64
        vals = np.asarray(self.values, dtype=dtype)
        first = np.asarray(self.first)
        if vals.ndim != 2 or vals.shape[1:] != first.shape or first.shape != (self.xi.size,):
            raise ValidationError(f"values {vals.shape} and first {first.shape} do not fit xi")
        rows_end = first.max() + vals.shape[0]
        if first.dtype.kind not in "iu" or first.min() < 0 or rows_end > self.n_tau:
            raise ValidationError("first must be integer rows, with every stored row on tau")
        object.__setattr__(self, "xi", _frozen_array(self.xi, float))
        object.__setattr__(self, "first", _frozen_array(first, np.intp))
        object.__setattr__(self, "values", _frozen_array(vals))

    @property
    def tau(self) -> np.ndarray:
        return self.tau0 + self.dtau * np.arange(self.n_tau)

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
    Every stored cell is weighed: a cell off the stored rows is zero.
    """
    if sign not in ("-", "+"):
        raise ValidationError("sign must be '-' or '+'")
    tau = f.tau0 + f.dtau * (f.first + np.arange(f.values.shape[0])[:, None])
    disp = np.abs(f.xi) ** alpha
    modulation = tau - disp if sign == "-" else tau + disp
    weight = (1.0 + np.abs(f.xi)) ** (2.0 * s) * (1.0 + np.abs(modulation)) ** (2.0 * b)
    return float(np.sqrt(np.sum(weight * np.abs(f.values) ** 2) * f.cell))
