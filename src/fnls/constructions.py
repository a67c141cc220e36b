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
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ResolutionError, ValidationError, WrapAroundError
from .spectral import (
    Grid,
    forward_transform,
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

@dataclass(frozen=True)
class BoxSpec:
    """A resonant box: frequencies in [N, N + N^((2-alpha)/2)] (or the mirror
    band starting at -N when conjugate), within unit distance of the
    dispersion surface.  The width is exactly the one that keeps the box
    inside an O(1) strip of the surface.  An N whose |xi|^alpha overflows
    across the box is rejected."""

    n: float
    alpha: float
    conjugate: bool = False

    def __post_init__(self):
        if self.n < 16 or math.frexp(self.n)[0] != 0.5:  # a power of two
            raise ValidationError(f"n must be a dyadic value >= 16, got {self.n}")
        _check_alpha(self.alpha, allow_two=False)
        if self.alpha * np.log(self.n + self.width) >= np.log(np.finfo(float).max):
            raise ValidationError(
                f"N = {self.n:g} overflows |xi|^alpha across its box, alpha {self.alpha:g}"
            )

    @property
    def width(self) -> float:
        return self.n ** ((2.0 - self.alpha) / 2.0)

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Midpoint xi samples across the box and the line tau = +-|xi|^alpha there."""
        xi, line, _ = _box_lattices([self])
        return xi[0], line[0]

    @property
    def tau_samples(self) -> int:
        """Length of box_data's tau lattice: the line's range and unit distance either side."""
        return int(_box_lattices([self])[2][0])


def _box_lattices(specs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The boxes' midpoint xi samples and the line tau = +-|xi|^alpha there,
    one (boxes, BOX_XI_SAMPLES) row per box in order, and each box's tau
    lattice length, the line's range and unit distance either side, as a
    float: a box past the admission would have more nodes than an integer
    holds."""
    n, alpha, width, conjugate = (np.array(column)[:, None] for column in zip(
        *((spec.n, spec.alpha, spec.width, spec.conjugate) for spec in specs)))
    xi = np.where(conjugate, -n, n) + (np.arange(BOX_XI_SAMPLES) + 0.5) * (width / BOX_XI_SAMPLES)
    disp = np.abs(xi) ** alpha
    line = np.where(conjugate, -disp, disp)
    span = line.max(axis=-1) + 1.0 - (line.min(axis=-1) - 1.0)
    return xi, line, np.ceil(span * BOX_TAU_SAMPLES_PER_UNIT) + 1


def box_data(specs) -> SpaceTimeField:
    """Real 0/1 indicators of the boxes of a sequence of BoxSpecs, in order,
    as a stack built at once, each entry bit-equal to its box alone (one
    BoxSpec gives its one field).  A box lives on a midpoint-sampled
    (tau, xi) lattice: each xi column holds one run of ones along tau (the
    samples with |tau - line| <= 1, consecutive as tau rises), stored from
    its start; the stack's entries share the longest run's row count."""
    single = isinstance(specs, BoxSpec)
    xi, line, n_tau = _box_lattices([specs] if single else specs)
    dtau = 1.0 / BOX_TAU_SAMPLES_PER_UNIT
    tau0 = line.min(axis=-1, keepdims=True) - 1.0 + 0.5 * dtau

    def outside(i):
        return (np.abs(tau0 + dtau * i - line) > 1.0).astype(np.intp)

    # each run's ends from the lattice arithmetic, with no tau array: an estimate
    # is off by at most a node, and the exact test there and outside settles it
    lo = np.ceil((line - 1.0 - tau0) / dtau).astype(np.intp)
    hi = np.floor((line + 1.0 - tau0) / dtau).astype(np.intp)
    lo += outside(lo) + outside(lo - 1) - 1
    hi += 1 - outside(hi) - outside(hi + 1)
    length = hi - lo + 1
    values = (np.arange(length.max())[:, None] < length[:, None, :]).astype(np.float64)
    boxes = (tau0[:, 0], n_tau.astype(np.intp), xi, lo, values)
    tau0, n_tau, xi, lo, values = (part[0] for part in boxes) if single else boxes
    return SpaceTimeField(tau0, dtau, n_tau, xi, lo, values)


def _antidiagonal(reduce, a: np.ndarray, b: np.ndarray, fill) -> np.ndarray:
    """reduce (np.minimum or np.maximum) of a[:, i] + b[:, j] over i + j = k,
    entry by entry of the (entries, columns) arrays a and b."""
    entries, k = a.shape[0], a.shape[1] + b.shape[1] - 1
    out = np.full(entries * k, fill)
    index = np.arange(entries)[:, None, None] * k + np.add.outer(np.arange(a.shape[1]),
                                                                 np.arange(b.shape[1]))
    reduce.at(out, index.ravel(), (a[:, :, None] + b[:, None, :]).ravel())
    return out.reshape(entries, k)


def trilinear_convolution(
    f1: SpaceTimeField, f2bar: SpaceTimeField, f3: SpaceTimeField
) -> SpaceTimeField:
    """Exact double space-time convolution of three box indicators, with
    Riemann weights: of three fields, or entry by entry of three stacks of
    one size, giving a stack.

    Each factor must be real 0/1 with one run of ones per xi column, stored
    from the column's first row as box_data stores it, so the convolution's
    third tau difference is 8 signed points per column triple: counted in
    integers and summed three times along tau, they give exact counts, times
    (dtau dxi)^2.  The output lattice covers the Minkowski sum of the
    supports; the factor lattices must share spacings (offsets add).  Each
    output column is stored from its first point over the widest support's
    rows, moved up where those would leave the lattice.  The checks, first
    points and widths of all entries are found at once; the points are
    counted one box triple and one end choice at a time, so the temporaries
    beside the output stack are two arrays of one triple's column triples,
    and every entry is bit-equal to its triple convolved alone.
    """
    fields = (f1, f2bar, f3)
    stack = f1.values.shape[:-2]
    dtau, dxi = f1.dtau, f1.dxi
    for f in fields[1:]:
        if f.values.shape[:-2] != stack:
            raise ValidationError("trilinear factors must be stacks of one size")
        if np.any(np.abs(f.dtau - dtau) > 1e-9 * dtau) or np.any(np.abs(f.dxi - dxi) > 1e-9 * dxi):
            raise ValidationError("lattice spacings do not match")
    n_tau, n_xi = sum(f.n_tau for f in fields) - 2, sum(f.xi.shape[-1] for f in fields) - 2
    # +1 at each run's start, -1 just past its end, as (2, entries, columns)
    # rows; a column triple's points sit in output column j1 + j2 + j3
    ends = []
    for f in fields:
        v = f.values.reshape((int(np.prod(stack)),) + f.values.shape[-2:])
        length = np.count_nonzero(v, axis=-2)
        ones_then_zeros = np.arange(v.shape[-2])[:, None] < length[:, None, :]
        if np.iscomplexobj(v) or np.any(length == 0) or not np.array_equal(v, ones_then_zeros):
            raise ValidationError("trilinear factors must be 0/1 boxes: one run of ones from row 0")
        start = f.first.reshape(length.shape)
        ends.append(np.stack([start, start + length]))
    # a column is summed from its least start sum, and its support ends 3 rows
    # before its largest end sum; points past the stored rows change none of them
    big = np.iinfo(np.intp).max
    first = _antidiagonal(np.minimum, _antidiagonal(np.minimum, ends[0][0], ends[1][0], big),
                          ends[2][0], big)
    last = _antidiagonal(np.maximum, _antidiagonal(np.maximum, ends[0][1], ends[1][1], -1),
                         ends[2][1], -1)
    width = np.max(last - first, axis=-1) - 2
    moved = np.minimum(first, np.reshape(n_tau, (-1, 1)) - width[:, None])
    # each point's cell in its entry's (width, n_xi) band, row-major: n_xi
    # times its row, plus its column, less n_xi times its column's moved row.
    # A factor's term is n_xi times its end plus its column; factor 3's term
    # less the moved rows, a (j1 + j2, j3) table, is taken at each column pair
    terms = [n_xi * e + np.arange(e.shape[-1]) for e in ends]
    j12 = np.add.outer(np.arange(ends[0].shape[-1]), np.arange(ends[1].shape[-1])).ravel()
    tile, points = np.empty((2, j12.size, ends[2].shape[-1]), dtype=np.intp)
    # shift[i, k, j3]: n_xi times entry i's moved row of output column k + j3
    shift = sliding_window_view(n_xi * moved, tile.shape[1], axis=-1)
    cell2 = np.broadcast_to(np.square(np.reshape(dtau * dxi, -1)), width.shape)
    values = np.zeros((len(width), width.max(), n_xi))
    for i, rows in enumerate(width):
        # the counts, whole numbers far below 2^53, are summed in the entry's
        # own float band, exactly
        band = values[i, :rows]
        flat = band.reshape(-1)
        pairs = (terms[0][:, None, i, :, None] + terms[1][None, :, i, None, :]).reshape(2, 2, -1, 1)
        for e3 in (0, 1):
            np.take(terms[2][e3, i] - shift[i], j12, axis=0, out=tile, mode="wrap")
            for e1, e2 in np.ndindex(2, 2):
                np.copyto(points, pairs[e1, e2])
                points += tile
                # an odd number of ends: a -1 point
                count = np.subtract if (e1 + e2 + e3) % 2 else np.add
                count(flat, np.bincount(points.ravel(), minlength=flat.size)[:flat.size], out=flat)
        for _ in range(3):
            np.cumsum(band, axis=0, out=band)
        band *= cell2[i]
    xi = sum(f.xi[..., :1] for f in fields) + np.reshape(dxi, np.shape(dxi) + (1,)) * np.arange(n_xi)
    tau0 = sum(f.tau0 for f in fields)
    values, moved = values.reshape(stack + values.shape[1:]), moved.reshape(stack + (n_xi,))
    return SpaceTimeField(tau0, dtau, n_tau, xi, moved, values)


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


def modulated_wavepacket(specs, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The packets A e^(iMx) w((x - x0)/tau) of a sequence of specs on the
    grid's torus, as (bands, m), row i for specs[i]: M = m dk + phi with
    |phi| <= dk/2, and the band row holds the coefficients of
    A e^(i phi x) w((x - x0)/tau), so packet mode k + m dk is band mode k.
    The m are whole numbers held as floats.  The packets are sampled,
    checked and transformed as one (packets, nx) array, each row bit-equal
    to its packet's alone.  The grid need only resolve the envelopes;
    wrap-around is checked on the band samples at t = 0 (check_contained),
    since |packet| = A |w|.  A carrier whose mode index M / dk overflows is
    rejected, naming M."""
    carrier, amplitude, tau, x0 = (np.array([getattr(spec, key) for spec in specs]).reshape(-1, 1)
                                   for key in ("carrier", "amplitude", "tau_scale", "x0"))
    with np.errstate(over="ignore"):
        m = np.round(carrier / grid.dk)
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"carrier M = {carrier[~np.isfinite(m)][0]:g} overflows its mode "
                              f"index M / dk on the packet grid, dk = {grid.dk:g}")
    w = np.exp(-0.5 * ((grid.x - x0) / tau) ** 2)
    values = amplitude * np.exp(1j * (carrier - m * grid.dk) * grid.x) * w
    check_contained(values, 0.0,
                    lambda i: f"envelope of carrier M = {carrier[i, 0]:g} does not fit the grid")
    return forward_transform(values, grid.dx), m[:, 0]


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
