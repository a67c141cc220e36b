"""Explicit objects used by the verification experiments: resonant
counterexample boxes, modulated wavepackets, NLS-based approximate solutions
of the fractional equation, amplitude/scale rescaling, and the nearly-equal
data pair driving the separation experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, ValidationError, WrapAroundError
from .spectral import (
    Field,
    Grid,
    lattice_mode,
    physical_values,
    resize_spectrum,
    spectral_tail_fraction,
    spectral_values,
    tail_fraction,
)
from .symbols import envelope_scale, group_velocity
from .norms import SpaceTimeField, sobolev_norm
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


def box_data(spec: BoxSpec) -> SpaceTimeField:
    """Real 0/1 indicator of the box on a midpoint-sampled (tau, xi) lattice."""
    dxi = spec.width / BOX_XI_SAMPLES
    dtau = 1.0 / BOX_TAU_SAMPLES_PER_UNIT
    start = -spec.n if spec.conjugate else spec.n
    xi = start + (np.arange(BOX_XI_SAMPLES) + 0.5) * dxi

    disp = np.abs(xi) ** spec.alpha
    line = -disp if spec.conjugate else disp
    lo, hi = line.min() - 1.0, line.max() + 1.0
    n_tau = int(np.ceil((hi - lo) / dtau)) + 1
    tau = lo + (np.arange(n_tau) + 0.5) * dtau

    values = (np.abs(tau[:, None] - line[None, :]) <= 1.0).astype(np.float64)
    return SpaceTimeField(tau, xi, values)


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n (n >= 1): a length that numpy's FFT
    factors into radix-2, -3, -4 and -5 passes alone."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the least power-of-two multiple of `odd` that reaches n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def trilinear_convolution(
    f1: SpaceTimeField, f2bar: SpaceTimeField, f3: SpaceTimeField
) -> SpaceTimeField:
    """Double space-time convolution with Riemann weights.

    The output lattice covers the Minkowski sum of the three supports; the
    factor lattices must share spacings (offsets are free and simply add).
    Each factor is transformed once at the full output shape, each axis
    zero-padded to the next 5-smooth length (2^a 3^b 5^c), and the three
    spectra are multiplied: one triple product and one inverse transform.
    Real factors (box indicators) take the real transform along the tau
    axis, the long axis of every box lattice, and give a real output.
    A repeated factor (f3 is f1) is transformed once; the product keeps its
    operand order, so the output is bit-identical to passing a copy.
    """
    fields = (f1, f2bar, f3)
    dtau, dxi = f1.dtau, f1.dxi
    for f in fields[1:]:
        if abs(f.dtau - dtau) > 1e-9 * dtau or abs(f.dxi - dxi) > 1e-9 * dxi:
            raise ValidationError("lattice spacings do not match")
    shape = tuple(sum(f.values.shape[ax] for f in fields) - 2 for ax in (0, 1))
    # the last of `axes` takes the real transform: tau, axis 0
    axes = (1, 0)
    fshape = tuple(_fast_len(shape[ax]) for ax in axes)
    if any(np.iscomplexobj(f.values) for f in fields):
        forward, inverse = np.fft.fftn, np.fft.ifftn
    else:
        forward, inverse = np.fft.rfftn, np.fft.irfftn
    first = forward(f1.values, fshape, axes)
    spectrum = forward(f2bar.values, fshape, axes)
    np.multiply(first, spectrum, out=spectrum)
    if f3 is not f1:  # free the first spectrum before the third transform
        del first
        first = forward(f3.values, fshape, axes)
    spectrum *= first
    del first  # at most three spectra: each transform holds two of its own
    vals = inverse(spectrum, fshape, axes)[: shape[0], : shape[1]] * (dtau * dxi) ** 2

    tau0 = f1.tau[0] + f2bar.tau[0] + f3.tau[0]
    xi0 = f1.xi[0] + f2bar.xi[0] + f3.xi[0]
    tau = tau0 + dtau * np.arange(shape[0])
    xi = xi0 + dxi * np.arange(shape[1])
    return SpaceTimeField(tau, xi, vals)


def _carrier_band(n_carrier: float, band_nx: int, grid: Grid) -> int:
    """Lattice index m_N of the carrier; the band_nx modes m_N + {-band_nx/2,
    ..., band_nx/2 - 1} must fit on the grid's band."""
    m_n = lattice_mode(n_carrier, grid)
    half_b, half_g = band_nx // 2, grid.nx // 2
    if m_n + half_b > half_g or m_n - half_b < -half_g:
        raise ResolutionError(
            "grid cannot hold the modulated band: "
            f"carrier mode {m_n} +- {half_b} exceeds +-{half_g}"
        )
    return m_n


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
    m_n = _carrier_band(n_carrier, v_grid.nx, target_grid)

    k_v = v_grid.k
    idx = (m_n + np.round(k_v / v_grid.dk).astype(int)) % target_grid.nx

    drift = (vel + frame_velocity) / beta  # y-translation rate of the sampling
    phase_rate = n_carrier**alpha + n_carrier * frame_velocity

    states = []
    for t, state in zip(v_traj.times, v_traj.states):
        vhat = spectral_values(state)
        if spectral_tail_fraction(state) > INTERP_LOSS_LIMIT:
            raise ResolutionError(
                f"envelope solution under-resolved at t={t:.6g}: outer-band "
                f"mass fraction {spectral_tail_fraction(state):.3g}"
            )
        out = np.zeros(target_grid.nx, dtype=np.complex128)
        out[idx] = beta * vhat * np.exp(1j * k_v * drift * t)
        out *= np.exp(1j * phase_rate * t)
        field = Field(target_grid, out)
        # only a localized envelope makes a wrap-around claim to enforce
        if (
            tail_fraction(physical_values(state))
            <= TAIL_MASS_LIMIT
            < tail_fraction(physical_values(field))
        ):
            raise WrapAroundError(
                f"modulated packet too close to the boundary at t={t:.6g}"
            )
        states.append(field)
    return Trajectory(v_traj.times.copy(), states)


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


def modulated_wavepacket(spec: WavepacketSpec, grid: Grid) -> Field:
    """Sample the modulated envelope on the grid (wrap-around checked)."""
    w = np.exp(-0.5 * ((grid.x - spec.x0) / spec.tau_scale) ** 2)
    values = spec.amplitude * np.exp(1j * spec.carrier * grid.x) * w
    frac = tail_fraction(values)
    if frac > TAIL_MASS_LIMIT:
        raise WrapAroundError(
            f"envelope does not fit the grid: tail mass fraction {frac:.3g}"
        )
    return Field.physical(grid, values)


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
    states = []
    for state in traj.states:
        uhat = spectral_values(state)
        _check_truncation(uhat, target_grid.nx)
        states.append(Field(target_grid, resize_spectrum(uhat, target_grid.nx)))

    return Trajectory(traj.times * lam ** (-alpha), states)


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
    """e^(iNx) w for every state w of traj, on target_grid (the same torus,
    more modes): mode k of the band becomes mode m_N + k."""
    band = traj.grid
    if abs(band.length - target_grid.length) > 1e-9 * target_grid.length:
        raise ValidationError("band grid must lie on the same torus as the target")
    m_n = _carrier_band(n_carrier, band.nx, target_grid)
    states = []
    for state in traj.states:
        out = resize_spectrum(spectral_values(state), target_grid.nx)
        states.append(Field(target_grid, np.roll(out, m_n)))
    return Trajectory(traj.times.copy(), states)


def lambda_for(s: float, alpha: float, n_carrier: float) -> float:
    """Zoom factor N^(((2-alpha)/4 - s)/(s + 1/2)) equalizing data norms."""
    if s <= -0.5:
        raise ValidationError(f"s must exceed -1/2, got {s}")
    if not (1.0 < alpha <= 2.0):
        raise ValidationError(f"alpha must lie in (1, 2], got {alpha}")
    exponent = ((2.0 - alpha) / 4.0 - s) / (s + 0.5)
    return float(n_carrier**exponent)


def nls_pair(
    epsilon: float,
    delta: float,
    grid: Grid,
    sigma: float,
    s: float = 0.0,
) -> tuple[Field, Field]:
    """Two proportional wide-envelope data sets for the reference NLS run.

    phi_j = a_j e^(-y^2/2) with y = (x - L/2)/sigma, a_2 = a_1 (1 + delta/epsilon)
    and a_1 chosen so that |phi_j|_{H^s} is epsilon (up to the delta-size
    excess on phi_2); the relative separation is then delta/epsilon exactly
    by construction.  Their alpha = 2 evolutions decohere through the
    amplitude-dependent nonlinear phase, which the separation experiment
    measures.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValidationError("epsilon must lie in (0, 1)")
    if not (0.0 <= delta <= 0.5 * epsilon):
        raise ValidationError("delta must satisfy 0 <= delta << epsilon")
    env = np.exp(-0.5 * ((grid.x - 0.5 * grid.length) / sigma) ** 2)
    if tail_fraction(env) > TAIL_MASS_LIMIT:
        raise WrapAroundError("envelope does not fit the grid")
    a1 = epsilon / sobolev_norm(Field.physical(grid, env), s)
    a2 = a1 * (1.0 + delta / epsilon)
    return (
        Field.physical(grid, a1 * env),
        Field.physical(grid, a2 * env),
    )
