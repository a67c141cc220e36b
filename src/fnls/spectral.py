"""Grids, transforms and the dealiased cubic nonlinearity.

Conventions (fixed once, used everywhere):

* The torus is [0, L) sampled at nx equispaced points, nx a power of two.
* Frequencies are the exact lattice (2*pi/L) * {-nx/2, ..., nx/2 - 1},
  stored in FFT order: [0, 1, ..., nx/2-1, -nx/2, ..., -1] * (2*pi/L).
* The spectral coefficient at mode k is the Riemann sum
  dx * sum_j u(x_j) exp(-i k x_j), i.e. it approximates the continuum
  integral of u exp(-i k x) over one period.  Plancherel then reads
  integral |u|^2 dx = (1/L) * sum_k |uhat(k)|^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

# Cubic products of a band-limited field need zero padding by this factor
# for the retained modes to be alias-free.
PAD_FACTOR = 2


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

    @property
    def k_max(self) -> float:
        """Largest frequency magnitude on the lattice (the -nx/2 mode)."""
        return (2.0 * np.pi / self.length) * (self.nx // 2)


def make_grid(nx: int, length: float) -> Grid:
    """Build the torus grid; nx must be a power of two >= 8, length > 0."""
    if not isinstance(nx, (int, np.integer)):
        raise ValidationError(f"nx must be an integer, got {nx!r}")
    nx = int(nx)
    if nx < 8 or (nx & (nx - 1)) != 0:
        raise ValidationError(f"nx must be a power of two >= 8, got {nx}")
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
        return cls(grid, forward_transform(np.asarray(samples, dtype=np.complex128), grid))

    @classmethod
    def spectral(cls, grid: Grid, values) -> "Field":
        return cls(grid, values)

    def __sub__(self, other: "Field") -> "Field":
        if (self.grid.nx, self.grid.length) != (other.grid.nx, other.grid.length):
            raise ValidationError("fields live on different grids")
        return Field(self.grid, self.values - other.values)


def forward_transform(u: np.ndarray, grid: Grid) -> np.ndarray:
    """Physical samples -> spectral coefficients (Riemann-sum normalization)."""
    return np.fft.fft(u) * grid.dx


def inverse_transform(uhat: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral coefficients -> physical samples."""
    return np.fft.ifft(uhat) / grid.dx


def spectral_values(f: Field) -> np.ndarray:
    """Spectral coefficients of f (the stored values)."""
    return f.values


def physical_values(f: Field) -> np.ndarray:
    """Physical samples of f on its grid."""
    return inverse_transform(f.values, f.grid)


def resize_spectrum(uhat: np.ndarray, nx: int) -> np.ndarray:
    """Carry FFT-ordered coefficients onto the nx-mode band.

    Growing zero-fills the new outer modes; shrinking drops the outermost
    ones.  The -n/2 coefficient of the smaller band keeps its
    negative-frequency identity, matching the asymmetric lattice
    {-n/2, ..., n/2 - 1}.
    """
    half = min(uhat.shape[0], nx) // 2
    out = np.zeros(nx, dtype=np.complex128)
    out[:half] = uhat[:half]
    out[-half:] = uhat[-half:]
    return out


def upsampled_physical(uhat: np.ndarray, grid: Grid, factor: int = PAD_FACTOR):
    """Physical samples of the trig interpolant on the factor-times finer grid."""
    fine = resize_spectrum(uhat, factor * grid.nx)
    dx_fine = grid.dx / factor
    return np.fft.ifft(fine) / dx_fine


def dealiased_density(uhat: np.ndarray, grid: Grid) -> np.ndarray:
    """Band-limited projection of |u|^2 sampled on the coarse grid.

    Computed on the 2x padded lattice so every retained mode of the quadratic
    product is exact; the projection is real up to the lone -nx/2 mode, whose
    imaginary leftover is discarded.
    """
    u_fine = upsampled_physical(uhat, grid)
    dens_hat = np.fft.fft(np.abs(u_fine) ** 2) * (grid.dx / PAD_FACTOR)
    dens_hat = resize_spectrum(dens_hat, grid.nx)
    return np.real(np.fft.ifft(dens_hat) / grid.dx)


def cubic_values(uhat: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral coefficients of the dealiased |u|^2 u."""
    u_fine = upsampled_physical(uhat, grid)
    w_fine = (np.abs(u_fine) ** 2) * u_fine
    w_hat_fine = np.fft.fft(w_fine) * (grid.dx / PAD_FACTOR)
    return resize_spectrum(w_hat_fine, grid.nx)


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


def spectral_tail_fraction(f: Field) -> float:
    """Fraction of the mass carried by the outer 10% of the frequency band."""
    dens = np.abs(f.values) ** 2
    total = float(dens.sum())
    if total == 0.0:
        return 0.0
    half = f.grid.nx // 2
    n_edge = max(1, half // 10)
    # outermost modes in FFT order sit around index nx/2
    outer = float(dens[half - n_edge : half + n_edge].sum())
    return outer / total
