"""Conserved quantities, Sobolev norms, and discrete space-time norms.

The space-time norm weights values on a (tau, xi) lattice by
(1+|xi|)^s (1+|tau -/+ |xi|^alpha|)^b and integrates with Riemann weights
dtau*dxi.  mass, energy and sobolev_norm reduce along the last axis, as
numpy's reduction gives: a Field gives one np.float64 (a float), and a
Trajectory one value per record, each bit-equal to that record's as a
Field.  xsb_norm gives one value per entry of a SpaceTimeField, always a
stack, each bit-equal to that entry's alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .spectral import physical_values, _frozen_array


def mass(f):
    """Integral of |u|^2 over the torus."""
    return np.sum(np.abs(f.values) ** 2, axis=-1) / f.grid.length


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
    return kinetic - quartic


def sobolev_norm(f, s: float):
    """H^s norm; s = 0 reduces to the square root of the mass."""
    grid = f.grid
    return _weighted_norm(f.values, _sobolev_weight(grid, s), grid.length)


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
    """A stack of fields on uniform (tau, xi) lattices, one entry per row of
    a leading axis as a Trajectory holds a record per row; a lone field is a
    stack of one.  tau0, dtau, n_tau and dxi hold one value per entry (tau0,
    dtau and n_tau may be given as one for all), xi and first a row, and
    values a (rows, xi) block: entry i's column j holds values[i, r, j] at
    tau0[i] + dtau[i] (first[i, j] + r), every other cell of its lattice is
    exactly zero, and `tau` builds the nodes on demand.  A dense entry is
    first = 0 with n_tau rows.  Real values stay real (float64), complex
    ones are stored as complex128.

    The entries share the longest entry's row count, so a shorter entry is
    padded below with zero rows, which may run past its lattice's end: an
    entry's rows up to its last nonzero one lie on its lattice, and every
    row of some entry does.  Values are held as a read-only view of the
    array given, not copied, since a stack's values are a scan's largest
    array.
    """

    tau0: np.ndarray
    dtau: np.ndarray
    n_tau: np.ndarray
    xi: np.ndarray
    first: np.ndarray
    values: np.ndarray
    dxi: np.ndarray = field(init=False)

    def __post_init__(self):
        lattice = tau0, dtau, n_tau = [np.asarray(x) for x in (self.tau0, self.dtau, self.n_tau)]
        if not (np.isfinite(tau0).all() and ((0.0 < dtau) & (dtau < np.inf)).all()
                and (n_tau >= 2).all()):
            raise ValidationError("tau lattice must be finite tau0, dtau > 0 and n_tau >= 2 nodes")
        xi = np.asarray(self.xi, dtype=float)
        steps = np.diff(xi) if xi.ndim == 2 and xi.size else np.zeros((0, 0))
        step = steps[:, :1]
        if not (steps.shape[-1] > 0 and (step > 0).all()
                and (np.abs(steps - step) <= 1e-9 * step).all()):
            raise ValidationError("xi lattice must be a row per entry, uniformly spaced "
                                  "and increasing")
        dtype = np.complex128 if np.iscomplexobj(self.values) else np.float64
        vals = np.asarray(self.values, dtype=dtype).view()
        first = np.asarray(self.first)
        if (vals.ndim != 3 or vals.shape[:1] + vals.shape[2:] != xi.shape
                or first.shape != xi.shape or any(x.ndim > 1 for x in lattice)):
            raise ValidationError(f"values {vals.shape} and first {first.shape} do not fit xi")
        # each entry's rows up to its last nonzero one lie on its lattice, and
        # every row of some entry does: only a stack's padding may run past
        held = (vals != 0).any(axis=-1)
        rows = np.max(held * np.arange(1, held.shape[-1] + 1), axis=-1, initial=0)
        last = first.max(axis=-1)
        if (first.dtype.kind not in "iu" or first.min() < 0 or (last + rows > n_tau).any()
                or not (last + vals.shape[-2] <= n_tau).any()):
            raise ValidationError("first must be integer rows, with every stored row on tau")
        for name, value, kind in zip(("tau0", "dtau", "n_tau"), lattice, (float, float, int)):
            object.__setattr__(self, name, _frozen_array(np.full(len(xi), value), kind))
        object.__setattr__(self, "dxi", _frozen_array(steps[:, 0]))
        object.__setattr__(self, "xi", _frozen_array(xi))
        object.__setattr__(self, "first", _frozen_array(first, np.intp))
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def tau(self) -> np.ndarray:
        """Each entry's tau nodes, a row per entry, as many as the longest
        lattice has: a shorter entry's row runs past its lattice's end."""
        return self.tau0[:, None] + self.dtau[:, None] * np.arange(self.n_tau.max())

    @property
    def cell(self) -> np.ndarray:
        """Quadrature weight of one lattice cell, one per entry."""
        return self.dtau * self.dxi


def xsb_norm(f: SpaceTimeField, s: float, b: float, alpha: float, sign: str = "-") -> np.ndarray:
    """Weighted lattice L^2 norm with weights (1+|xi|)^s (1+|tau -/+ |xi|^a|)^b.

    sign '-' weighs distance to tau = +|xi|^alpha (fields evolving like u);
    sign '+' weighs distance to tau = -|xi|^alpha (transforms of conjugates).
    Every stored cell is weighed: a cell off the stored rows is zero.

    One value per entry of the stack, each bit-equal to that entry weighed
    alone: an entry's weighted cells are summed down each column, where a
    stack's zero padding rows come last, then across.  The column terms of
    all entries are made at once and the cell weights one entry at a time,
    so the temporaries are an entry's size: a stacked convolution's values
    are a scan's largest array, and weights of the stack's size beside them
    would pass the peak of the point-by-point scan.
    """
    if sign not in ("-", "+"):
        raise ValidationError("sign must be '-' or '+'")
    rows = np.arange(f.values.shape[1])[:, None]
    disp = np.abs(f.xi) ** alpha
    if sign == "-":
        disp = -disp
    columns = (1.0 + np.abs(f.xi)) ** (2.0 * s)
    totals = np.empty(len(f.values))
    for i, v in enumerate(f.values):
        # tau = tau0 + dtau (first + r), then its modulation's weight, in place
        weight = f.dtau[i] * (f.first[i] + rows)
        weight += f.tau0[i]
        weight += disp[i]
        np.abs(weight, out=weight)
        weight += 1.0
        weight **= 2.0 * b
        weight *= columns[i]
        weight *= np.abs(v) ** 2
        totals[i] = np.sum(np.sum(weight, axis=0))
    return np.sqrt(totals * f.cell)
