"""Explicit objects used by the verification experiments: resonant
counterexample boxes, modulated wavepackets, NLS-based approximate solutions
of the fractional equation, carrier remodulation and amplitude/scale
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
    inverse_transform,
    lattice_mode,
    resize_spectrum,
    spectral_tail_fraction,
    tail_fraction,
)
from .symbols import envelope_scale, group_velocity
# sobolev_norm is not called here; it stays importable from this module
# because perfbench/tracer.py wraps it at this lookup site
from .norms import SpaceTimeField, sobolev_norm  # noqa: F401
from .evolution import Trajectory, TAIL_MASS_LIMIT

INTERP_LOSS_LIMIT = 1e-8
WAVEPACKET_SMOOTHNESS = 1.0  # sigma of WavepacketSpec's s < 0 hypotheses

# box_data's lattice: frequency samples across a box, tau samples per unit
BOX_XI_SAMPLES = 16
BOX_TAU_SAMPLES_PER_UNIT = 8


def _is_power_of_two(x: float) -> bool:
    m, e = math.frexp(x)
    return m == 0.5


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
        if self.n < 16 or not _is_power_of_two(self.n):
            raise ValidationError(f"n must be a dyadic value >= 16, got {self.n}")
        if not (1.0 < self.alpha < 2.0):
            raise ValidationError(f"alpha must lie in (1, 2), got {self.alpha}")

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
    tau = line.min() - 1.0 + (np.arange(spec.tau_samples) + 0.5) / BOX_TAU_SAMPLES_PER_UNIT
    distance = tau[:, None] - line
    inside = np.abs(distance, out=distance) <= 1.0
    length = np.count_nonzero(inside, axis=0)
    values = (np.arange(length.max())[:, None] < length).astype(np.float64)
    return SpaceTimeField(tau, xi, np.argmax(inside, axis=0), values)


def trilinear_convolution(
    f1: SpaceTimeField, f2bar: SpaceTimeField, f3: SpaceTimeField
) -> SpaceTimeField:
    """Exact double space-time convolution of three box indicators, with
    Riemann weights.

    Each factor must be real 0/1 with one run of ones per xi column, stored
    from the column's first row as box_data stores it, so the convolution's
    third tau difference is 8 signed points per column triple: counted and
    summed three times along tau, they give exact integer counts, times
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
    n_tau, n_xi = (sum(getattr(f, ax).size for f in fields) - 2 for ax in ("tau", "xi"))
    # +1 at each run's start, -1 just past its end: a column triple's 8 signed
    # points, laid out (2, m1, 2, m2, 2, m3), sit in output column j1 + j2 + j3
    points, cols, sign = 0, 0, 1.0
    for f in fields:
        v = f.values
        length = np.count_nonzero(v, axis=0)
        ones_then_zeros = np.arange(v.shape[0])[:, None] < length
        if np.iscomplexobj(v) or np.any(length == 0) or not np.array_equal(v, ones_then_zeros):
            raise ValidationError("trilinear factors must be 0/1 boxes: one run of ones from row 0")
        points = np.add.outer(points, np.stack([f.first, f.first + length]))
        cols = np.add.outer(cols, np.arange(v.shape[1])[None, :])
        sign = np.multiply.outer(sign, [[1.0], [-1.0]])
    # a column is summed from its least start sum, and its support ends 3 rows
    # before its last point; points past the stored rows change none of them
    first = np.full(n_xi, n_tau)
    np.minimum.at(first, cols.ravel(), points[0, :, 0, :, 0].ravel())
    width = (points - first[cols]).max() - 2
    first = np.minimum(first, n_tau - width)
    bins = (points - first[cols]) * n_xi + cols
    counts = np.bincount(bins.ravel(), np.broadcast_to(sign, bins.shape).ravel(), width * n_xi)
    counts = counts[: width * n_xi].reshape(width, n_xi)
    for _ in range(3):
        np.cumsum(counts, axis=0, out=counts)
    counts *= (dtau * dxi) ** 2
    tau = sum(f.tau[0] for f in fields) + dtau * np.arange(n_tau)
    xi = sum(f.xi[0] for f in fields) + dxi * np.arange(n_xi)
    return SpaceTimeField(tau, xi, first, counts)


def _carrier_band(n_carrier: float, band: Grid, grid: Grid) -> np.ndarray:
    """Indices on grid of the band's modes m shifted by the carrier's lattice
    index m_N: m_N + m, FFT-ordered; the band must fit on the grid's band."""
    m_n = lattice_mode(n_carrier, grid)
    half_b, half_g = band.nx // 2, grid.nx // 2
    if m_n + half_b > half_g or m_n - half_b < -half_g:
        raise ResolutionError(
            "grid cannot hold the modulated band: "
            f"carrier mode {m_n} +- {half_b} exceeds +-{half_g}"
        )
    return (m_n + np.round(band.k / band.dk).astype(int)) % grid.nx


def approximate_solution(
    v_traj: Trajectory,
    n_carrier: float,
    alpha: float,
    target_grid: Grid,
    frame_velocity: float = 0.0,
) -> Trajectory:
    """Modulated image V(t, x) = e^(iNx) e^(iN^alpha t) v(s, y) of an NLS
    trajectory v under the wavepacket change of variables.

    The v grid must tile the target torus exactly: beta * L_v = L_target.
    Sampling onto the target grid is band-limited (exact for the stored
    band): each v mode m lands on target mode m_N + m with a time-dependent
    translation phase.  With frame_velocity = -group_velocity the image is
    evaluated in the frame where the packet rests.
    """
    beta = envelope_scale(alpha, n_carrier)
    vel = group_velocity(alpha, n_carrier)
    v_grid = v_traj.grid
    if abs(beta * v_grid.length - target_grid.length) > 1e-9 * target_grid.length:
        raise ValidationError(
            "envelope grid does not tile the target torus: need "
            f"beta*L_v = L_target (beta*L_v = {beta * v_grid.length:.6g}, "
            f"L_target = {target_grid.length:.6g})"
        )
    idx = _carrier_band(n_carrier, v_grid, target_grid)

    drift = (vel + frame_velocity) / beta  # y-translation rate of the sampling
    phase_rate = n_carrier**alpha + n_carrier * frame_velocity

    t_col = v_traj.times[:, None]
    out = np.zeros((t_col.size, target_grid.nx), dtype=np.complex128)
    out[:, idx] = beta * v_traj.values * np.exp(1j * v_grid.k * drift * t_col)
    out *= np.exp(1j * phase_rate * t_col)
    for t, vhat, uhat in zip(v_traj.times, v_traj.values, out):
        if spectral_tail_fraction(vhat) > INTERP_LOSS_LIMIT:
            raise ResolutionError(
                f"envelope solution under-resolved at t={t:.6g}: outer-band "
                f"mass fraction {spectral_tail_fraction(vhat):.3g}"
            )
        # only a localized envelope makes a wrap-around claim to enforce
        if (
            tail_fraction(inverse_transform(vhat, v_grid.dx))
            <= TAIL_MASS_LIMIT
            < tail_fraction(inverse_transform(uhat, target_grid.dx))
        ):
            raise WrapAroundError(
                f"modulated packet too close to the boundary at t={t:.6g}"
            )
    return Trajectory(v_traj.times, target_grid, out)


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
    band samples, since |packet| = A |w|."""
    m = round(spec.carrier / grid.dk)
    w = np.exp(-0.5 * ((grid.x - spec.x0) / spec.tau_scale) ** 2)
    values = spec.amplitude * np.exp(1j * (spec.carrier - m * grid.dk) * grid.x) * w
    frac = tail_fraction(values)
    if frac > TAIL_MASS_LIMIT:
        raise WrapAroundError(f"envelope does not fit the grid: tail mass fraction {frac:.3g}")
    return Field.physical(grid, values), m


def rescale_solution(
    traj: Trajectory, lam: float, alpha: float, target_grid: Grid
) -> Trajectory:
    """Amplitude/space/time rescaling u -> lam * u(lam^alpha t, lam x).

    The spectral coefficients carry over unchanged: the amplitude factor lam
    is absorbed exactly by the lam-times finer Riemann sum, which is also how
    mass(rescaled) = lam * mass(original) arises.  Coefficients are padded or
    truncated to the target band; truncation must lose < 1e-8 of the norm.
    Recorded times shrink by lam^(-alpha).
    """
    if lam < 1.0:
        raise ValidationError(f"lambda must be >= 1, got {lam}")
    src = traj.grid
    if abs(target_grid.length - src.length / lam) > 1e-9 * target_grid.length:
        raise ValidationError(
            "target grid length must be the source length divided by lambda"
        )
    for uhat in traj.values:
        _check_truncation(uhat, target_grid.nx)
    return Trajectory(
        traj.times * lam ** (-alpha), target_grid, resize_spectrum(traj.values, target_grid.nx)
    )


def _check_truncation(uhat: np.ndarray, nx: int) -> None:
    """Raise unless the modes resize_spectrum(uhat, nx) drops hold less than
    INTERP_LOSS_LIMIT of uhat's norm.

    The dropped modes are summed directly: a difference of the total and
    kept sums would leave round-off of order sqrt(1e-16) = 1e-8, the limit
    itself.
    """
    half = nx // 2
    lost = float(np.sum(np.abs(uhat[half : uhat.shape[0] - half]) ** 2))
    total = float(np.sum(np.abs(uhat) ** 2))
    if total > 0 and np.sqrt(lost / total) > INTERP_LOSS_LIMIT:
        raise ResolutionError(f"rescaling would truncate {np.sqrt(lost / total):.3g} of the state")


def remodulate(traj: Trajectory, n_carrier: float, target_grid: Grid) -> Trajectory:
    """e^(iNx) w for every record w of traj, on target_grid (the same torus,
    more modes): mode k of the band becomes mode m_N + k."""
    band = traj.grid
    if abs(band.length - target_grid.length) > 1e-9 * target_grid.length:
        raise ValidationError("band grid must lie on the same torus as the target")
    idx = _carrier_band(n_carrier, band, target_grid)
    values = np.zeros((traj.times.size, target_grid.nx), dtype=np.complex128)
    values[:, idx] = traj.values
    return Trajectory(traj.times, target_grid, values)


def lambda_for(s: float, alpha: float, n_carrier: float) -> float:
    """Zoom factor N^(((2-alpha)/4 - s)/(s + 1/2)) equalizing data norms."""
    if s <= -0.5:
        raise ValidationError(f"s must exceed -1/2, got {s}")
    if not (1.0 < alpha <= 2.0):
        raise ValidationError(f"alpha must lie in (1, 2], got {alpha}")
    if not n_carrier > 0.0:
        raise ValidationError(f"carrier frequency must be positive, got {n_carrier:g}")
    exponent = ((2.0 - alpha) / 4.0 - s) / (s + 0.5)
    return float(n_carrier**exponent)
