"""Explicit objects used by the verification experiments: resonant
counterexample boxes, modulated wavepackets, NLS-based approximate solutions
of the fractional equation on their carrier's band, and amplitude/scale
rescaling.  The trajectory constructions act on whole (records, nx)
coefficient arrays; their checks run record by record, in time order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, ValidationError, WrapAroundError
from .spectral import (
    Field,
    Grid,
    make_grid,
    spectral_tail_fraction,
    tail_fraction,
)
from .symbols import _check_alpha, envelope_scale, group_velocity
# sobolev_norm is not called here; it stays importable from this module
# because perfbench/tracer.py wraps it at this lookup site
from .norms import SpaceTimeField, sobolev_norm  # noqa: F401
from .evolution import Trajectory

TAIL_MASS_LIMIT = 1e-8  # check_contained's bound on the mass in the domain's outer 10%
INTERP_LOSS_LIMIT = 1e-8
WAVEPACKET_SMOOTHNESS = 1.0  # sigma of WavepacketSpec's s < 0 hypotheses

# box_data's lattice: frequency samples across a box, tau samples per unit
BOX_XI_SAMPLES = 16
BOX_TAU_SAMPLES_PER_UNIT = 8

# trilinear_convolution's 8 run-end choices (a1, a2, a3) per column triple,
# 1 just past the run: the 4 with an even number of 1s count +1, the rest -1
_END_CHOICES = np.array(sorted(np.ndindex(2, 2, 2), key=lambda a: sum(a) % 2)).T


@dataclass(frozen=True)
class BoxSpec:
    """A resonant box: frequencies in [N, N + N^((2-alpha)/2)] (or the mirror
    band starting at -N when conjugate), within unit distance of the
    dispersion surface.  The width is exactly the one that keeps the box
    inside an O(1) strip of the surface."""

    n: float
    alpha: float
    conjugate: bool = False

    def __post_init__(self):
        if self.n < 16 or math.frexp(self.n)[0] != 0.5:  # a power of two
            raise ValidationError(f"n must be a dyadic value >= 16, got {self.n}")
        _check_alpha(self.alpha, allow_two=False)

    @property
    def width(self) -> float:
        return self.n ** ((2.0 - self.alpha) / 2.0)

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Midpoint xi samples across the box and the line tau = +-|xi|^alpha there."""
        start = -self.n if self.conjugate else self.n
        xi = start + (np.arange(BOX_XI_SAMPLES) + 0.5) * (self.width / BOX_XI_SAMPLES)
        disp = np.abs(xi) ** self.alpha
        return xi, (-disp if self.conjugate else disp)

    @property
    def tau_samples(self) -> int:
        """Length of box_data's tau lattice: the line's range and unit distance either side."""
        line = self.columns()[1]
        return int(np.ceil((line.max() + 1.0 - (line.min() - 1.0)) * BOX_TAU_SAMPLES_PER_UNIT)) + 1


def box_data(spec: BoxSpec) -> SpaceTimeField:
    """Real 0/1 indicator of the box on a midpoint-sampled (tau, xi) lattice:
    each xi column holds one run of ones along tau (the samples with
    |tau - line| <= 1, consecutive as tau rises), stored from its start."""
    xi, line = spec.columns()
    dtau = 1.0 / BOX_TAU_SAMPLES_PER_UNIT
    tau0 = line.min() - 1.0 + 0.5 * dtau

    def outside(i):
        return (np.abs(tau0 + dtau * i - line) > 1.0).astype(np.intp)

    # each run's ends from the lattice arithmetic, with no tau array: an estimate
    # is off by at most a node, and the exact test there and outside settles it
    lo = np.ceil((line - 1.0 - tau0) / dtau).astype(np.intp)
    hi = np.floor((line + 1.0 - tau0) / dtau).astype(np.intp)
    lo += outside(lo) + outside(lo - 1) - 1
    hi += 1 - outside(hi) - outside(hi + 1)
    length = hi - lo + 1
    values = (np.arange(length.max())[:, None] < length).astype(np.float64)
    return SpaceTimeField(tau0, dtau, spec.tau_samples, xi, lo, values)


def trilinear_convolution(
    f1: SpaceTimeField, f2bar: SpaceTimeField, f3: SpaceTimeField
) -> SpaceTimeField:
    """Exact double space-time convolution of three box indicators, with
    Riemann weights.

    Each factor must be real 0/1 with one run of ones per xi column, stored
    from the column's first row as box_data stores it, so the convolution's
    third tau difference is 8 signed points per column triple: counted in
    integers and summed three times along tau, they give exact counts, times
    (dtau dxi)^2.  The output lattice covers the Minkowski sum of the
    supports; the factor lattices must share spacings (offsets add).  Each
    output column is stored from its first point over the widest support's
    rows, moved up where those would leave the lattice.
    """
    fields = (f1, f2bar, f3)
    dtau, dxi = f1.dtau, f1.dxi
    for f in fields[1:]:
        if abs(f.dtau - dtau) > 1e-9 * dtau or abs(f.dxi - dxi) > 1e-9 * dxi:
            raise ValidationError("lattice spacings do not match")
    n_tau, n_xi = sum(f.n_tau for f in fields) - 2, sum(f.xi.size for f in fields) - 2
    # +1 at each run's start, -1 just past its end: a column triple's points,
    # one row per _END_CHOICES entry, sit in output column j1 + j2 + j3
    points, cols = np.zeros((8, 1), dtype=np.intp), np.zeros(1, dtype=np.intp)
    for f, choice in zip(fields, _END_CHOICES):
        v = f.values
        length = np.count_nonzero(v, axis=0)
        ones_then_zeros = np.arange(v.shape[0])[:, None] < length
        if np.iscomplexobj(v) or np.any(length == 0) or not np.array_equal(v, ones_then_zeros):
            raise ValidationError("trilinear factors must be 0/1 boxes: one run of ones from row 0")
        ends = np.stack([f.first, f.first + length])[choice]
        points = (points[:, :, None] + ends[:, None, :]).reshape(8, -1)
        cols = np.add.outer(cols, np.arange(v.shape[1])).ravel()
    # a column is summed from its least start sum, and its support ends 3 rows
    # before its last point; points past the stored rows change none of them
    first = np.full(n_xi, n_tau)
    np.minimum.at(first, cols, points[0])
    points -= first[cols]
    width = points.max() - 2
    moved = np.minimum(first, n_tau - width)
    points *= n_xi  # each point's cell in the (width, n_xi) band, row-major
    points += ((first - moved) * n_xi + np.arange(n_xi))[cols]
    size = width * n_xi
    plus, minus = (np.bincount(half, minlength=size)[:size] for half in points.reshape(2, -1))
    counts = (plus - minus).reshape(width, n_xi)
    for _ in range(3):
        np.cumsum(counts, axis=0, out=counts)
    xi = sum(f.xi[0] for f in fields) + dxi * np.arange(n_xi)
    tau0 = sum(f.tau0 for f in fields)
    return SpaceTimeField(tau0, dtau, n_tau, xi, moved, counts * (dtau * dxi) ** 2)


def image_phase_rate(n_carrier: float, alpha: float) -> float:
    """Rest-frame phase rate N^alpha - N c, c = group_velocity, of N's
    modulated image (see approximate_solution)."""
    return n_carrier**alpha - n_carrier * group_velocity(alpha, n_carrier)


def image_values(values: np.ndarray, t, beta, phase_rate) -> np.ndarray:
    """The image's coefficients beta e^(i phase_rate t) times the envelope's
    values, for any shapes that broadcast: a column of times against
    records, or columns of beta and image_phase_rate against stacked rows."""
    return beta * values * np.exp(1j * phase_rate * t)


def check_contained(samples: np.ndarray, t: float, where) -> None:
    """WrapAroundError for the first row of samples at time t whose mass
    fraction in the outer 10% of the domain passes TAIL_MASS_LIMIT, named
    by where(row): the torus stands in for the line only while a run keeps
    off its ends.  All rows are measured at once."""
    fracs = np.atleast_1d(tail_fraction(samples))
    over = np.flatnonzero(fracs > TAIL_MASS_LIMIT)
    if over.size:
        i = int(over[0])
        raise WrapAroundError(
            f"{where(i)}: tail mass fraction {fracs[i]:.3g} in the "
            f"outer 10% of the domain at t={t:.6g} exceeds {TAIL_MASS_LIMIT:.0e}"
        )


def check_resolved(values: np.ndarray, times, where=None) -> None:
    """ResolutionError for the first row of envelope coefficients values
    (row i at times[i]; times may be one t for all rows) whose outer-band
    mass fraction passes INTERP_LOSS_LIMIT; where(i), when given, names its
    run.  All rows are measured at once."""
    loss = np.atleast_1d(spectral_tail_fraction(values))
    over = np.flatnonzero(loss > INTERP_LOSS_LIMIT)
    if over.size:
        i = int(over[0])
        t = np.broadcast_to(times, loss.shape)[i]
        raise ResolutionError(
            f"{where(i) + ': ' if where else ''}envelope solution under-resolved at t={t:.6g}: "
            f"outer-band mass fraction {loss[i]:.3g}"
        )


def approximate_solution(
    v_traj: Trajectory,
    n_carrier: float,
    alpha: float,
    length: float,
) -> Trajectory:
    """Modulated image V(t, x) = e^(iNx) e^(i(N^alpha - N c)t) v(t, x/beta)
    of an NLS trajectory v under the wavepacket change of variables, in the
    frame moving with the packet at c = group_velocity, where it rests, on
    the carrier grid of v's nx modes around N on the torus of the given
    length; v's grid must tile that torus: beta * L_v = length.  The image
    is band-limited and exact for the stored band: v mode m is image mode
    m_N + m, with beta times its coefficient (image_values).  |V(t, x)| =
    |v(t, x/beta)|, so the image's wrap-around is its envelope's
    (check_contained).  The envelope's resolution is measured
    for all records at once; the first under-resolved record, in time
    order, raises (check_resolved).
    """
    beta = envelope_scale(alpha, n_carrier)
    v_grid = v_traj.grid
    if abs(beta * v_grid.length - length) > 1e-9 * length:
        raise ValidationError(
            f"envelope grid does not tile the torus: beta*L_v = {beta * v_grid.length:.6g}, "
            f"length = {length:.6g}"
        )
    band = make_grid(v_grid.nx, length, carrier=n_carrier)
    check_resolved(v_traj.values, v_traj.times)
    phase_rate = image_phase_rate(n_carrier, alpha)
    out = image_values(v_traj.values, v_traj.times[:, None], beta, phase_rate)
    return Trajectory(v_traj.times, band, out)


@dataclass(frozen=True)
class WavepacketSpec:
    """Modulated Gaussian A e^(iMx) w((x - x0)/tau_scale), w(y) = e^(-y^2/2).

    The hypotheses of the norm-scaling bounds are enforced: M*tau >= 1 for
    s >= 0, and tau * M^(1 + s/sigma) >= 1 with sigma >= |s| for s < 0,
    where sigma is WAVEPACKET_SMOOTHNESS.
    """

    amplitude: float
    carrier: float
    tau_scale: float
    x0: float
    s: float = 0.0

    def __post_init__(self):
        if self.carrier < 1.0:
            raise ValidationError("carrier frequency must be >= 1")
        if self.tau_scale <= 0.0:
            raise ValidationError("tau_scale must be positive")
        if self.s >= 0.0:
            if self.carrier * self.tau_scale < 1.0:
                raise ValidationError(
                    "scaling hypothesis M*tau >= 1 violated for s >= 0"
                )
        else:
            if WAVEPACKET_SMOOTHNESS < abs(self.s):
                raise ValidationError("envelope smoothness must be >= |s|")
            if self.tau_scale * self.carrier ** (1.0 + self.s / WAVEPACKET_SMOOTHNESS) < 1.0:
                raise ValidationError(
                    "scaling hypothesis tau*M^(1+s/sigma) >= 1 violated for s < 0"
                )


def modulated_wavepacket(spec: WavepacketSpec, grid: Grid) -> tuple[Field, int]:
    """The packet A e^(iMx) w((x - x0)/tau) on the grid's torus as (band, m):
    M = m dk + phi with |phi| <= dk/2, and the band field samples
    A e^(i phi x) w((x - x0)/tau), so packet mode k + m dk is band mode k.
    The grid need only resolve the envelope; wrap-around is checked on the
    band samples at t = 0 (check_contained), since |packet| = A |w|."""
    m = round(spec.carrier / grid.dk)
    w = np.exp(-0.5 * ((grid.x - spec.x0) / spec.tau_scale) ** 2)
    values = spec.amplitude * np.exp(1j * (spec.carrier - m * grid.dk) * grid.x) * w
    check_contained(values, 0.0, lambda _: "envelope does not fit the grid")
    return Field.physical(grid, values), m


def rescale_solution(traj: Trajectory, lam: float, alpha: float) -> Trajectory:
    """Amplitude/space/time rescaling u -> lam * u(lam^alpha t, lam x).

    The spectral coefficients carry over unchanged onto the torus lam times
    shorter, whose modes and carrier are lam times larger: the amplitude
    factor lam is absorbed exactly by the lam-times finer Riemann sum, which
    is also how mass(rescaled) = lam * mass(original) arises.  Recorded
    times shrink by lam^(-alpha).
    """
    if lam < 1.0:
        raise ValidationError(f"lambda must be >= 1, got {lam}")
    src = traj.grid
    grid = make_grid(src.nx, src.length / lam, carrier=lam * src.carrier)
    return Trajectory(traj.times * lam ** (-alpha), grid, traj.values)


def lambda_for(s: float, alpha: float, n_carrier: float) -> float:
    """Zoom factor N^(((2-alpha)/4 - s)/(s + 1/2)) equalizing data norms."""
    if s <= -0.5:
        raise ValidationError(f"s must exceed -1/2, got {s}")
    alpha = _check_alpha(alpha)
    if not n_carrier >= 1.0:  # below 1, lambda < 1 in the separation range
        raise ValidationError(f"carrier frequency must be >= 1, got {n_carrier:g}")
    exponent = ((2.0 - alpha) / 4.0 - s) / (s + 0.5)
    if exponent * np.log(n_carrier) >= np.log(np.finfo(float).max):
        raise ValidationError(f"carrier frequency {n_carrier:g} overflows N^{exponent:.3g}")
    return float(n_carrier**exponent)
