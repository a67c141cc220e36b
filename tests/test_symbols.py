import numpy as np
import pytest

from fnls.errors import ValidationError
from fnls.evolution import SimConfig
from fnls.spectral import make_grid
from fnls.symbols import remainder_bound_constant, remainder_symbol


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


def _term_by_term_tail(alpha, z):
    """The binomial tail with its stop rule tested after every term."""
    coeff = alpha * (alpha - 1.0) * (alpha - 2.0) / 6.0
    zpow = z**3
    total = coeff * zpow
    for m in range(4, 80):
        coeff *= (alpha - m + 1.0) / m
        zpow = zpow * z
        term = coeff * zpow
        total += term
        if np.all(np.abs(term) <= 1e-18 * np.maximum(np.abs(total), 1e-300)):
            break
    return total


def test_remainder_series_stop_every_eighth_term_is_bit_equal():
    # the terms past the stop are each below half an ulp of the sum, so
    # testing the rule every 8th term adds nothing: bit-equal to the rule
    # tested after every term, on the series' whole domain |z| <= 1/2
    for alpha in np.round(np.arange(1.05, 1.96, 0.05), 2):
        for n in [2.0**j for j in range(2, 12)] + [1e6]:
            beta_n = np.sqrt(0.5 * alpha * (alpha - 1.0)) * n ** (alpha / 2.0)
            xi = np.linspace(-0.5, 0.5, 401) * beta_n
            want = n**alpha * _term_by_term_tail(alpha, xi / beta_n)
            assert np.array_equal(remainder_symbol(alpha, n, xi), want), (alpha, n)
