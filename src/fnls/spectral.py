"""Grids, transforms and the cubic nonlinearity.

Conventions (fixed once, used everywhere):

* The torus is [0, L) sampled at nx equispaced points, nx a power of two.
* Frequencies are the exact lattice (2*pi/L) * {-nx/2, ..., nx/2 - 1},
  stored in FFT order: [0, 1, ..., nx/2-1, -nx/2, ..., -1] * (2*pi/L),
  plus the grid's carrier N (0 unless given, and on the lattice).  A
  carrier grid holds the band of nx modes around N: a Field on it is
  u = e^(iNx) w stored as w's coefficients, and its samples are w's.
* The spectral coefficient at mode k is the Riemann sum
  dx * sum_j u(x_j) exp(-i k x_j), i.e. it approximates the continuum
  integral of u exp(-i k x) over one period.  Plancherel then reads
  integral |u|^2 dx = (1/L) * sum_k |uhat(k)|^2.
* Products are taken at the nx samples, unpadded.  Their modes beyond the
  band alias back onto it, which is nil only for resolved data: the cubic
  term is exact when every mode index m has |m| < nx/6.
* Every complex transform goes through one pair, fft and ifft: the
  pocketfft ufuncs behind numpy.fft (numpy >= 2.0), called along the last
  axis with numpy.fft's scalings 1 and 1/n, so bit-equal to numpy.fft.fft
  and ifft.  numpy.fft's Python wrapper costs about as much as the
  transform itself at nx = 256; the pair skips it and writes into a given
  ``out``, so the integrators step on buffers they keep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import ValidationError

# dealiased_density's zero-padding factor
PAD_FACTOR = 2

# every call's predicted peak bytes and work must fit these (see admit); a
# work unit is one value through one pass (a Strang step or a Picard block
# iteration), 18-56 ns on a 2-core host, so a budget's work takes 5-16 min
MEMORY_BUDGET = 2**30
WORK_BUDGET = 2**34
# a pass's cost besides its values, in work units: a Strang step takes
# 9-14 us at 1 x 16 values and about 0.02-0.03 us more a value beyond
PASS_OVERHEAD = 2**9
# complex fields a stepping row pins besides its records: coefficients, symbol,
# half-phases, step buffers and a consumer's wrap-around check (8.8 measured)
STEP_FIELDS = 9

# a grid's spectral coefficients are dx times the DFT, about length * |u|;
# below this length no norm's sum of their squares overflows, for any nx a
# grid may have and any |u| that evolve accepts
LENGTH_LIMIT = 1e100


def _frozen_array(values, dtype=None):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid:
    """Spatial and frequency lattice of a torus of circumference ``length``;
    k holds the frequencies of the nx modes around ``carrier``."""

    nx: int
    length: float
    carrier: float
    x: np.ndarray = field(repr=False, compare=False)
    k: np.ndarray = field(repr=False, compare=False)

    @property
    def dx(self) -> float:
        return self.length / self.nx

    @property
    def dk(self) -> float:
        return 2.0 * np.pi / self.length


def _count(x) -> str:
    """x in full below a million, else to three significant digits."""
    return f"{x:.0f}" if x < 1e6 else f"{x:.3g}" if x < 1e300 else "over 1e300"


def admit(what: str, remedy: str, nbytes, work) -> None:
    """The one resource check: ValidationError naming what and the remedy
    unless a call's predicted peak nbytes and work fit MEMORY_BUDGET and
    WORK_BUDGET (NaN fits neither), stated before the call allocates."""
    if nbytes <= MEMORY_BUDGET and work <= WORK_BUDGET:
        return
    raise ValidationError(
        f"{what}: {_count(nbytes // 2**20)} MiB and {_count(work)} work units exceed the "
        f"{MEMORY_BUDGET >> 20} MiB / {_count(WORK_BUDGET)}-unit budget; {remedy}"
    )


def make_grid(nx: int, length: float, carrier: float = 0.0) -> Grid:
    """Build the torus grid; nx must be a power of two >= 8 on which one
    stepping row of STEP_FIELDS fields is admitted (checked first), length
    in (0, LENGTH_LIMIT], and the carrier on the frequency lattice: the
    frequencies are k + carrier."""
    if not isinstance(nx, (int, np.integer)):
        raise ValidationError(f"nx must be an integer, got {nx!r}")
    nx = int(nx)
    if nx < 8 or (nx & (nx - 1)) != 0:
        raise ValidationError(f"nx must be a power of two >= 8, got {nx}")
    admit(f"a grid of nx = {nx}", "lower nx", 16 * STEP_FIELDS * nx, nx + PASS_OVERHEAD)
    length = float(length)
    if not 0.0 < length <= LENGTH_LIMIT:
        raise ValidationError(f"length must lie in (0, {LENGTH_LIMIT:g}], got {length:g}")
    carrier = float(carrier)
    lattice_mode(carrier, length)
    dx = length / nx
    x = _frozen_array(np.arange(nx) * dx)
    # fftfreq(nx, 1/nx) is exactly [0, 1, ..., nx/2-1, -nx/2, ..., -1]
    k = _frozen_array((2.0 * np.pi / length) * np.fft.fftfreq(nx, 1.0 / nx) + carrier)
    return Grid(nx=nx, length=length, carrier=carrier, x=x, k=k)


@dataclass(frozen=True)
class Field:
    """One complex state on a grid, stored as its spectral coefficients.

    Immutable: the coefficient buffer is copied and write-protected on
    construction.  Field.physical builds one from physical samples and
    physical_values gives the samples back.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.grid.nx,):
            raise ValidationError(
                f"values shape {vals.shape} does not match grid nx={self.grid.nx}"
            )
        object.__setattr__(self, "values", _frozen_array(vals))

    @classmethod
    def physical(cls, grid: Grid, samples) -> "Field":
        return cls(grid, forward_transform(np.asarray(samples, dtype=np.complex128), grid.dx))


def fft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """numpy.fft.fft(a) along the last axis, bit for bit, into out (a new
    complex array when None; out may be a itself)."""
    if out is None:
        out = np.empty(a.shape, dtype=np.complex128)
    return _pocketfft.fft(a, 1.0, out=out)


def ifft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """numpy.fft.ifft(a) along the last axis, bit for bit, into out (a new
    complex array when None; out may be a itself)."""
    if out is None:
        out = np.empty(a.shape, dtype=np.complex128)
    return _pocketfft.ifft(a, 1.0 / a.shape[-1], out=out)


def forward_transform(u: np.ndarray, dx) -> np.ndarray:
    """Physical samples -> spectral coefficients (Riemann-sum normalization)
    along the last axis; stacked rows take a (rows, 1) column of dx."""
    uhat = fft(u)
    uhat *= dx
    return uhat


def inverse_transform(uhat: np.ndarray, dx) -> np.ndarray:
    """Spectral coefficients -> physical samples along the last axis."""
    u = ifft(uhat)
    u /= dx
    return u


def spectral_values(f) -> np.ndarray:
    """Spectral coefficients of f (the stored values)."""
    return f.values


def physical_values(f) -> np.ndarray:
    """Physical samples of f on its grid (a row per record of a Trajectory);
    on a carrier grid, those of the envelope e^(-iNx) u."""
    return inverse_transform(f.values, f.grid.dx)


def lattice_mode(freq: float, length: float) -> int:
    """Index m with freq = m * 2pi/length; freq must lie on that lattice."""
    m = freq * length / (2.0 * np.pi)
    if not (np.isfinite(m) and abs(m - round(m)) <= 1e-9 * max(1.0, abs(m))):
        raise ValidationError(
            f"frequency {freq} is not on the grid lattice "
            f"(needs freq*L/2pi integer, got {m})"
        )
    return int(round(m))


def dealiased_density(fine: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Samples of u and scale times the band-limited projection of |u|^2,
    both on the coarse grid, from one inverse transform of ``fine``: u's nx
    coefficients zero-padded to PAD_FACTOR * nx and divided by the fine
    spacing dx / PAD_FACTOR.  No integrator calls it; it stays for the
    benchmark's tracer (see fnls.evolution).
    """
    nx = fine.shape[-1] // PAD_FACTOR
    u_fine = ifft(fine)
    dens_hat = np.fft.rfft(u_fine.real**2 + u_fine.imag**2)[..., : nx // 2 + 1]
    density = np.fft.irfft(dens_hat, nx)
    density *= scale / PAD_FACTOR
    return u_fine[..., ::PAD_FACTOR], density


def cubic_values(uhat: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """Spectral coefficients of |u|^2 u taken at the nx samples, along the
    last axis (rows are transformed independently), into out (a new array
    when None), which serves as the working buffer; out may not share
    memory with uhat unless it is uhat.

    Nothing is scaled on the way: the ifft of the coefficients is dx times
    the samples, so the fft of |ifft|^2 ifft (|.|^2 as re^2 + im^2) is dx^2
    times the coefficients, and one multiply by dx^-2 gives them.  Exact,
    with no aliasing, when every mode index m has |m| < nx/6.
    """
    u = ifft(uhat, out)  # the samples, then their cubic term, in one buffer
    density = u.real**2
    density += u.imag**2
    u *= density
    fft(u, out=u)
    u *= grid.dx**-2
    return u


def _per_record(total):
    """A reduction along the last axis as a float for one row, else the
    array of row values."""
    return float(total) if np.ndim(total) == 0 else total


def _edge_share(dens: np.ndarray, outer):
    """outer / (sum of dens along the last axis), 0 where that sum is 0 (and
    so is outer: dens is not negative)."""
    total = np.add.reduce(dens, axis=-1)
    return _per_record(outer / np.where(total == 0.0, 1.0, total))


def tail_fraction(u: np.ndarray):
    """Fraction of the mass of the samples u sitting in the outer 10% of the
    domain, along the last axis: a float for one row, one value per row of
    stacked rows, each bit-equal to that row's alone.

    Used to certify that a wavepacket run on the torus is a faithful stand-in
    for the whole line.  It takes samples, not a Field, so that callers
    holding the samples pay no inverse transform.
    """
    dens = np.abs(u) ** 2
    n_edge = max(1, u.shape[-1] // 20)
    outer = np.add.reduce(dens[..., :n_edge], axis=-1) + np.add.reduce(dens[..., -n_edge:], axis=-1)
    return _edge_share(dens, outer)


def spectral_tail_fraction(uhat: np.ndarray):
    """Fraction of the mass of coefficients uhat in the outer 10% of the
    band, along the last axis as tail_fraction."""
    dens = np.abs(uhat) ** 2
    half = uhat.shape[-1] // 2
    n_edge = max(1, half // 10)
    # outermost modes in FFT order sit around index nx/2
    return _edge_share(dens, np.add.reduce(dens[..., half - n_edge : half + n_edge], axis=-1))
