"""Grids, transforms and the cubic nonlinearity.

Conventions (fixed once, used everywhere):

* The torus is [0, L) sampled at nx equispaced points, nx a power of two.
* Frequencies are the exact lattice (2*pi/L) * {-nx/2, ..., nx/2 - 1},
  stored in FFT order: [0, 1, ..., nx/2-1, -nx/2, ..., -1] * (2*pi/L).
* The spectral coefficient at mode k is the Riemann sum
  dx * sum_j u(x_j) exp(-i k x_j), i.e. it approximates the continuum
  integral of u exp(-i k x) over one period.  Plancherel then reads
  integral |u|^2 dx = (1/L) * sum_k |uhat(k)|^2.
* Products are taken at the nx samples, unpadded.  Their modes beyond the
  band alias back onto it, which is nil only for resolved data: the cubic
  term is exact when every mode index m has |m| < nx/6.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

# dealiased_density's zero-padding factor
PAD_FACTOR = 2

# evolve_together keeps every recorded state of every run; together they
# may take at most this many bytes, and one grid's complex field no more
EVOLVE_HISTORY_LIMIT = 2**30


def _frozen_array(values, dtype=None):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid:
    """Spatial and frequency lattice of a torus of circumference ``length``."""

    nx: int
    length: float
    x: np.ndarray = field(repr=False, compare=False)
    k: np.ndarray = field(repr=False, compare=False)

    @property
    def dx(self) -> float:
        return self.length / self.nx

    @property
    def dk(self) -> float:
        return 2.0 * np.pi / self.length


def make_grid(nx: int, length: float) -> Grid:
    """Build the torus grid; nx must be a power of two >= 8 whose complex
    field fits in EVOLVE_HISTORY_LIMIT bytes (checked first), length > 0."""
    if not isinstance(nx, (int, np.integer)):
        raise ValidationError(f"nx must be an integer, got {nx!r}")
    nx = int(nx)
    if nx < 8 or (nx & (nx - 1)) != 0:
        raise ValidationError(f"nx must be a power of two >= 8, got {nx}")
    if 16 * nx > EVOLVE_HISTORY_LIMIT:
        limit = f"{EVOLVE_HISTORY_LIMIT >> 20} MiB limit"
        raise ValidationError(f"nx = {nx} needs a complex field over the {limit}; lower nx")
    length = float(length)
    if not np.isfinite(length) or length <= 0:
        raise ValidationError(f"length must be positive, got {length}")
    dx = length / nx
    x = _frozen_array(np.arange(nx) * dx)
    # fftfreq(nx, 1/nx) is exactly [0, 1, ..., nx/2-1, -nx/2, ..., -1]
    k = _frozen_array((2.0 * np.pi / length) * np.fft.fftfreq(nx, 1.0 / nx))
    return Grid(nx=nx, length=length, x=x, k=k)


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


def forward_transform(u: np.ndarray, dx) -> np.ndarray:
    """Physical samples -> spectral coefficients (Riemann-sum normalization)
    along the last axis; stacked rows take a (rows, 1) column of dx."""
    return np.fft.fft(u) * dx


def inverse_transform(uhat: np.ndarray, dx) -> np.ndarray:
    """Spectral coefficients -> physical samples along the last axis."""
    return np.fft.ifft(uhat) / dx


def spectral_values(f) -> np.ndarray:
    """Spectral coefficients of f (the stored values)."""
    return f.values


def physical_values(f) -> np.ndarray:
    """Physical samples of f on its grid (a row per record of a Trajectory)."""
    return inverse_transform(f.values, f.grid.dx)


def lattice_mode(freq: float, grid: Grid) -> int:
    """Index m with freq = m * dk; freq must lie on the grid's lattice."""
    m = freq * grid.length / (2.0 * np.pi)
    m_int = int(round(m))
    if abs(m - m_int) > 1e-9 * max(1.0, abs(m)):
        raise ValidationError(
            f"frequency {freq} is not on the grid lattice "
            f"(needs freq*L/2pi integer, got {m})"
        )
    return m_int


def resize_spectrum(uhat: np.ndarray, nx: int) -> np.ndarray:
    """Carry FFT-ordered coefficients (last axis) onto the nx-mode band.

    Growing zero-fills the new outer modes; shrinking drops the outermost
    ones.  The -n/2 coefficient of the smaller band keeps its
    negative-frequency identity, matching the asymmetric lattice
    {-n/2, ..., n/2 - 1}.
    """
    half = min(uhat.shape[-1], nx) // 2
    out = np.zeros(uhat.shape[:-1] + (nx,), dtype=np.complex128)
    out[..., :half] = uhat[..., :half]
    out[..., -half:] = uhat[..., -half:]
    return out


def dealiased_density(fine: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Samples of u and scale times the band-limited projection of |u|^2,
    both on the coarse grid, from one inverse transform of ``fine``: u's nx
    coefficients zero-padded to PAD_FACTOR * nx and divided by the fine
    spacing dx / PAD_FACTOR.  No integrator calls it; it stays for the
    benchmark's tracer (see fnls.evolution).
    """
    nx = fine.shape[-1] // PAD_FACTOR
    u_fine = np.fft.ifft(fine)
    dens_hat = np.fft.rfft(u_fine.real**2 + u_fine.imag**2)[..., : nx // 2 + 1]
    density = np.fft.irfft(dens_hat, nx)
    density *= scale / PAD_FACTOR
    return u_fine[..., ::PAD_FACTOR], density


def cubic_values(uhat: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral coefficients of |u|^2 u taken at the nx samples, along the
    last axis (rows are transformed independently).

    Nothing is scaled on the way: numpy's ifft of the coefficients is dx
    times the samples, so the fft of |ifft|^2 ifft (|.|^2 as re^2 + im^2)
    is dx^2 times the coefficients, and one multiply by dx^-2 gives them.
    Exact, with no aliasing, when every mode index m has |m| < nx/6.
    """
    u = np.fft.ifft(uhat)
    u *= u.real**2 + u.imag**2
    return np.fft.fft(u) * grid.dx**-2


def tail_fraction(u: np.ndarray) -> float:
    """Fraction of the mass of the samples u sitting in the outer 10% of the
    domain.

    Used to certify that a wavepacket run on the torus is a faithful stand-in
    for the whole line.  It takes samples, not a Field, so that callers
    holding the samples pay no inverse transform.
    """
    dens = np.abs(u) ** 2
    total = float(dens.sum())
    if total == 0.0:
        return 0.0
    n_edge = max(1, u.shape[0] // 20)
    outer = float(dens[:n_edge].sum() + dens[-n_edge:].sum())
    return outer / total


def spectral_tail_fraction(uhat: np.ndarray) -> float:
    """Fraction of the mass of coefficients uhat in the outer 10% of the band."""
    dens = np.abs(uhat) ** 2
    total = float(dens.sum())
    if total == 0.0:
        return 0.0
    half = uhat.shape[0] // 2
    n_edge = max(1, half // 10)
    # outermost modes in FFT order sit around index nx/2
    outer = float(dens[half - n_edge : half + n_edge].sum())
    return outer / total
