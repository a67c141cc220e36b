import tracemalloc

import numpy as np
import pytest

import fnls.spectral as spectral

from fnls.errors import ValidationError
from fnls.spectral import (
    Field,
    cubic_values,
    forward_transform,
    make_grid,
    physical_values,
    spectral_values,
)
from fnls.norms import mass


def test_grid_frequency_lattice():
    g = make_grid(8, 2 * np.pi)
    assert sorted(g.k) == [-4, -3, -2, -1, 0, 1, 2, 3]
    assert g.dx == pytest.approx(np.pi / 4, rel=1e-15)


def test_grid_frequency_spacing():
    g = make_grid(16, 4 * np.pi)
    assert np.allclose(np.diff(sorted(g.k)), 0.5, rtol=0, atol=1e-15)
    # exact integer multiples of 2*pi/L
    m = g.k / g.dk
    assert np.array_equal(m, np.round(m))


def test_carrier_grid_shifts_the_frequencies_and_checks_the_lattice():
    # the 8 modes around N = 48 dk: frequencies k + N on the same samples,
    # whose values and coefficients round-trip as on a plain grid
    plain = make_grid(8, 40.0)
    n = 48 * plain.dk
    g = make_grid(8, 40.0, carrier=n)
    assert g.carrier == n and np.array_equal(g.x, plain.x)
    assert np.array_equal(g.k, plain.k + n)
    assert g == make_grid(8, 40.0, carrier=n) and g != plain
    samples = np.random.default_rng(3).standard_normal(8) + 1j
    assert np.allclose(physical_values(Field.physical(g, samples)), samples, rtol=0, atol=1e-14)
    # a carrier off the lattice, N L / 2pi not an integer, or not finite
    for off in (1.01 * n, float("inf"), float("nan")):
        with pytest.raises(ValidationError, match="not on the grid lattice"):
            make_grid(8, 40.0, carrier=off)


@pytest.mark.parametrize("nx", [7, 6, 0, -8, 12])
def test_grid_rejects_bad_nx(nx):
    with pytest.raises(ValidationError):
        make_grid(nx, 1.0)


@pytest.mark.parametrize("shape", [(256,), (1, 256), (4, 512), (16, 1024)])
def test_fft_pair_is_bit_equal_to_numpy_fft(shape):
    # new arrays, a given buffer and the input itself all get numpy's bits
    rng = np.random.default_rng(shape[-1] + len(shape))
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for pair, numpy_fn in ((spectral.fft, np.fft.fft), (spectral.ifft, np.fft.ifft)):
        want = numpy_fn(a)
        assert np.array_equal(pair(a), want)
        out = np.empty_like(a)
        assert pair(a, out=out) is out and np.array_equal(out, want)
        b = a.copy()
        assert np.array_equal(pair(b, out=b), want)


@pytest.mark.parametrize("fraction", [spectral.tail_fraction, spectral.spectral_tail_fraction])
def test_tail_fractions_reduce_row_by_row(fraction):
    # stacked rows give each row's own float, bits and all; a zero row gives 0
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((4, 256)) + 1j * rng.standard_normal((4, 256))
    rows[2] = 0.0
    got = fraction(rows)
    assert got.shape == (4,)
    for row, value in zip(rows, got):
        alone = fraction(row)
        assert isinstance(alone, float) and alone == value
    assert got[2] == 0.0 and np.all(got[[0, 1, 3]] > 0.0)


def test_grid_rejects_an_nx_whose_field_passes_the_limit(monkeypatch):
    # 2^26 complex values are exactly EVOLVE_HISTORY_LIMIT bytes; nx = 2^27
    # and 2^31 are rejected before x or k is allocated
    tracemalloc.start()
    try:
        for nx in (2**27, 2**31):
            with pytest.raises(ValidationError, match=f"nx = {nx} needs a complex field over"):
                make_grid(nx, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the boundary, at a small limit: a field of exactly the limit is allowed
    monkeypatch.setattr(spectral, "EVOLVE_HISTORY_LIMIT", 16 * 64)
    assert make_grid(64, 1.0).nx == 64
    with pytest.raises(ValidationError):
        make_grid(128, 1.0)


def test_grid_rejects_bad_length():
    with pytest.raises(ValidationError):
        make_grid(8, 0.0)
    with pytest.raises(ValidationError):
        make_grid(8, -2.0)


def test_single_mode_transform():
    g = make_grid(16, 4 * np.pi)
    fs = Field.physical(g, np.exp(1j * 2.0 * g.x))
    idx = int(np.argmin(np.abs(g.k - 2.0)))
    assert fs.values[idx] == pytest.approx(g.length, rel=1e-13)
    rest = np.delete(fs.values.copy(), idx)
    assert np.max(np.abs(rest)) < 1e-12 * g.length


def test_zero_transforms_to_zero():
    g = make_grid(8, 1.0)
    z = Field.physical(g, np.zeros(8))
    assert np.all(z.values == 0)


def test_round_trip_and_parseval_random_fields():
    rng = np.random.default_rng(7)
    for _ in range(100):
        nx = int(rng.choice([32, 64]))
        g = make_grid(nx, float(rng.uniform(1.0, 20.0)))
        u = rng.standard_normal(nx) + 1j * rng.standard_normal(nx)
        f = Field.physical(g, u)
        back = physical_values(f)
        assert np.max(np.abs(back - u)) <= 1e-12 * np.max(np.abs(u))
        # Parseval under the chosen normalization
        phys = g.dx * np.sum(np.abs(u) ** 2)
        spec = np.sum(np.abs(spectral_values(f)) ** 2) / g.length
        assert spec == pytest.approx(phys, rel=1e-12)


def test_transform_matches_direct_summation():
    rng = np.random.default_rng(3)
    g = make_grid(32, 3.7)
    u = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    direct = np.array(
        [g.dx * np.sum(u * np.exp(-1j * k * g.x)) for k in g.k]
    )
    assert np.allclose(forward_transform(u, g.dx), direct, rtol=1e-11, atol=1e-11)


def _cubic_samples(grid, u):
    """Physical samples of the cubic term |u|^2 u for physical samples u."""
    out = cubic_values(Field.physical(grid, u).values, grid)
    return physical_values(Field(grid, out))


def test_cubic_plane_wave_is_eigenfunction():
    g = make_grid(64, 2 * np.pi)
    a = 0.7 - 0.4j
    out = _cubic_samples(g, a * np.exp(1j * 3 * g.x))
    expect = abs(a) ** 2 * a * np.exp(1j * 3 * g.x)
    assert np.max(np.abs(out - expect)) < 1e-13


def test_cubic_zero():
    g = make_grid(16, 1.0)
    assert np.all(cubic_values(np.zeros(16, dtype=complex), g) == 0)


def _brute_force_dealiased_cubic(uhat, grid):
    """|u|^2 u on a 4x zero-padded lattice, projected back to the band."""
    nx = grid.nx
    fine = np.zeros(4 * nx, dtype=complex)
    fine[: nx // 2] = uhat[: nx // 2]
    fine[-nx // 2 :] = uhat[nx // 2 :]
    dx_f = grid.dx / 4
    u_f = np.fft.ifft(fine) / dx_f
    w_hat = np.fft.fft(np.abs(u_f) ** 2 * u_f) * dx_f
    return np.concatenate([w_hat[: nx // 2], w_hat[-nx // 2 :]])


def test_cubic_two_modes_against_padded_oracle():
    g = make_grid(32, 5.0)
    u = 0.8 * np.exp(1j * g.k[3] * g.x) + (0.3 - 0.5j) * np.exp(1j * g.k[29] * g.x)
    f = Field.physical(g, u)
    got = cubic_values(f.values, g)
    want = _brute_force_dealiased_cubic(f.values, g)
    assert np.max(np.abs(got - want)) < 1e-11 * np.max(np.abs(want))


def test_cubic_random_against_padded_oracle():
    # on modes |m| < nx/6 the product |u|^2 u stays inside the band, so the
    # nx samples give it with no aliasing
    rng = np.random.default_rng(11)
    g = make_grid(64, 2 * np.pi)
    uhat = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    uhat[np.abs(g.k / g.dk) >= 64 / 6] = 0.0
    got = cubic_values(uhat, g)
    want = _brute_force_dealiased_cubic(uhat, g)
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


def test_cubic_random_against_direct_oracle():
    # full-spectrum rows: the forward transform of |u|^2 u at the samples,
    # row by row; a stacked call transforms each row on its own
    rng = np.random.default_rng(13)
    g = make_grid(32, 3.0)
    u = rng.standard_normal((4, 32)) + 1j * rng.standard_normal((4, 32))
    got = cubic_values(forward_transform(u, g.dx), g)
    for row in range(4):
        want = forward_transform(np.abs(u[row]) ** 2 * u[row], g.dx)
        assert np.max(np.abs(got[row] - want)) < 1e-13 * np.max(np.abs(want))


def test_cubic_homogeneity_degree_three():
    rng = np.random.default_rng(5)
    g = make_grid(64, 4.0)
    u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    for c in (1.7, -0.3 + 1.1j, 0.01j):
        base = _cubic_samples(g, u)
        scaled = _cubic_samples(g, c * u)
        expect = abs(c) ** 2 * c * base
        assert np.max(np.abs(scaled - expect)) <= 1e-12 * np.max(np.abs(expect))


def test_fields_are_immutable():
    g = make_grid(8, 1.0)
    f = Field.physical(g, np.zeros(8))
    with pytest.raises(ValueError):
        f.values[0] = 1.0
    with pytest.raises(ValueError):
        g.k[0] = 5.0


def test_field_shape_validation():
    g = make_grid(8, 1.0)
    with pytest.raises(ValidationError):
        Field.physical(g, np.zeros(9))
    with pytest.raises(ValidationError):
        Field(g, np.zeros(9))


def test_mass_spectral_equals_physical():
    rng = np.random.default_rng(9)
    g = make_grid(32, 2.5)
    u = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    f = Field.physical(g, u)
    assert mass(f) == pytest.approx(g.dx * np.sum(np.abs(u) ** 2), rel=1e-12)
    assert np.max(np.abs(physical_values(f) - u)) < 1e-12
