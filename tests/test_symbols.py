import numpy as np
import pytest

from fnls.errors import ValidationError
from fnls.evolution import SimConfig
from fnls.spectral import make_grid
from fnls.symbols import remainder_bound_constant, remainder_symbol, resonance


def _dispersion(alpha, nx=16):
    """Lattice and dispersion symbol of the evolution on the 2*pi torus."""
    grid = make_grid(nx, 2 * np.pi)
    cfg = SimConfig(alpha=alpha, gamma=0.0, dt=1e-3, t_final=1e-3, grid=grid)
    return grid.k, cfg.symbol()


def test_dispersion_values():
    k, sym = _dispersion(2.0)
    assert sym[k == 3.0][0] == pytest.approx(9.0)
    k, sym = _dispersion(1.5)
    assert sym[k == 4.0][0] == pytest.approx(8.0)
    assert sym[k == 0.0][0] == 0.0


def test_dispersion_domain():
    grid = make_grid(16, 2 * np.pi)
    for bad in (1.0, 0.5, 2.1, 3.0):
        with pytest.raises(ValidationError):
            SimConfig(alpha=bad, gamma=0.0, dt=1e-3, t_final=1e-3, grid=grid)


def test_dispersion_even_and_increasing():
    for alpha in (1.2, 1.7, 2.0):
        k, sym = _dispersion(alpha, nx=256)
        # FFT order: index m holds k = m, index nx - m holds k = -m
        assert np.array_equal(sym[1:128], sym[:128:-1])
        assert np.all(np.diff(sym[:128]) > 0)


def test_resonance_values():
    assert resonance(1.5, 8.0, -8.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert resonance(2.0, 1.0, -3.0, 2.0) == pytest.approx(-4.0)


def test_resonance_sum_zero_guard():
    with pytest.raises(ValidationError):
        resonance(1.5, 1.0, 1.0, 1.0)


def test_resonance_symmetries():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x1, x2 = rng.uniform(-30, 30, 2)
        x3 = -(x1 + x2)
        alpha = rng.uniform(1.01, 2.0)
        h = resonance(alpha, x1, x2, x3)
        assert resonance(alpha, x3, x2, x1) == pytest.approx(h, rel=1e-12, abs=1e-12)
        assert resonance(alpha, -x1, -x2, -x3) == pytest.approx(h, rel=1e-12, abs=1e-12)


def test_resonance_upper_bound():
    rng = np.random.default_rng(1)
    x1 = rng.uniform(-100, 100, 5000)
    x2 = rng.uniform(-100, 100, 5000)
    x3 = -(x1 + x2)
    for alpha in (1.2, 1.5, 1.9):
        h = resonance(alpha, x1, x2, x3)
        xi_max = np.max(np.abs([x1, x2, x3]), axis=0)
        assert np.all(np.abs(h) <= 3.0 * xi_max**alpha + 1e-9)


def _sum_zero_sample(rng, n):
    """Sum-zero triples with |xi_min| >= 1 and max/min ratio <= 2^10."""
    x1 = rng.uniform(-1024, 1024, 8 * n)
    x2 = rng.uniform(-1024, 1024, 8 * n)
    x3 = -(x1 + x2)
    mags = np.abs(np.stack([x1, x2, x3]))
    keep = (mags.min(axis=0) >= 1.0) & (mags.max(axis=0) <= 1024.0 * mags.min(axis=0))
    batch = np.stack([x1, x2, x3], axis=1)[keep]
    assert batch.shape[0] >= n
    return batch[:n]


def test_resonance_lower_bound_power_law():
    # constant harvested from one sample batch, asserted on a fresh batch
    alpha = 1.5
    rng = np.random.default_rng(2)
    batch = _sum_zero_sample(rng, 100_000)
    x1, x2, x3 = batch.T
    h = resonance(alpha, x1, x2, x3)
    mags = np.abs(batch)
    scale = np.max(mags, axis=1) ** (alpha - 1.0) * np.min(mags, axis=1)
    c = float(np.min(np.abs(h) / scale))
    assert c > 0

    fresh = _sum_zero_sample(np.random.default_rng(3), 100_000)
    y1, y2, y3 = fresh.T
    h2 = resonance(alpha, y1, y2, y3)
    mags2 = np.abs(fresh)
    scale2 = np.max(mags2, axis=1) ** (alpha - 1.0) * np.min(mags2, axis=1)
    assert np.all(np.abs(h2) >= 0.5 * c * scale2)


def test_remainder_vanishes_to_second_order():
    for alpha, n in ((1.2, 16.0), (1.5, 64.0), (1.9, 1024.0)):
        assert remainder_symbol(alpha, n, 0.0) == 0.0
        # |R| <= C |xi|^3 near zero forces R(0) = R'(0) = R''(0) = 0
        h = np.array([1e-4, 1e-3, 1e-2])
        r = np.abs(remainder_symbol(alpha, n, h))
        c1 = remainder_bound_constant(alpha)
        assert np.all(r <= c1 * n ** (-alpha / 2.0) * h**3)


def test_remainder_domain():
    with pytest.raises(ValidationError):
        remainder_symbol(2.0, 16.0, 1.0)
    with pytest.raises(ValidationError):
        remainder_symbol(1.5, 2.0, 1.0)


def test_remainder_against_mpmath_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50

    def exact(alpha, n, xi):
        beta = mp.sqrt(alpha * (alpha - 1) / 2 * mp.mpf(n) ** (alpha - 2))
        f = mp.fabs(xi / beta + n) ** alpha
        p = mp.mpf(n) ** alpha + alpha * mp.mpf(n) ** (alpha - 1) / beta * xi + xi**2
        return float(f - p)

    for alpha in (1.2, 1.5, 1.9):
        n = 256.0
        lim = n ** (alpha / 2.0 - 0.1)
        for xi in np.linspace(-lim, lim, 31):
            if xi == 0.0:
                continue
            got = remainder_symbol(alpha, n, xi)
            want = exact(alpha, n, mp.mpf(float(xi)))
            assert got == pytest.approx(want, rel=1e-9)


def test_remainder_cubic_coefficient_decay():
    # sup over |xi| <= 2 of |R|/|xi|^3 decays like N^(-alpha/2)
    alpha = 1.5
    xi = np.linspace(-2, 2, 801)
    xi = xi[np.abs(xi) > 1e-6]
    ns = np.array([2.0**j for j in range(5, 12)])
    sups = np.array(
        [np.max(np.abs(remainder_symbol(alpha, n, xi)) / np.abs(xi) ** 3) for n in ns]
    )
    slope = np.polyfit(np.log(ns), np.log(sups), 1)[0]
    assert slope == pytest.approx(-alpha / 2.0, abs=0.1)


def test_remainder_explicit_constant():
    c1 = remainder_bound_constant(1.5)
    half = 0.5 * 1.5 * 0.5
    assert c1 == pytest.approx(
        max(8 * 1.5 * half**-1.5, 2 ** (4 - 1.5) / 6 * 0.5 * half**-0.5)
    )
