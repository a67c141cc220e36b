"""Scalar symbol functions: the wavepacket frame and the remainder of the
dispersion symbol.

All functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def _check_alpha(alpha: float, allow_two: bool = True) -> float:
    alpha = float(alpha)
    hi_ok = alpha <= 2.0 if allow_two else alpha < 2.0
    if not (1.0 < alpha and hi_ok):
        rng = "(1, 2]" if allow_two else "(1, 2)"
        raise ValidationError(f"alpha must lie in {rng}, got {alpha}")
    return alpha


def _carrier_power(alpha: float, n_carrier: float) -> float:
    """N^alpha for a checked alpha; a carrier whose N^alpha overflows is rejected."""
    if alpha * np.log(n_carrier) >= np.log(np.finfo(float).max):
        raise ValidationError(f"carrier frequency {n_carrier:g} overflows N^alpha, alpha {alpha:g}")
    return n_carrier**alpha


def envelope_scale(alpha: float, n_carrier: float) -> float:
    """Width ratio beta = (alpha(alpha-1)/2 * N^(alpha-2))^(1/2) of the
    wavepacket frame: y = (x + group_velocity*t) / beta."""
    alpha = _check_alpha(alpha, allow_two=True)
    return float(np.sqrt(0.5 * alpha * (alpha - 1.0) * n_carrier ** (alpha - 2.0)))


def group_velocity(alpha: float, n_carrier: float) -> float:
    """Speed alpha*N^(alpha-1) at which a carrier-N packet translates."""
    alpha = _check_alpha(alpha, allow_two=True)
    return float(alpha * n_carrier ** (alpha - 1.0))


# Beyond this value of |z| = |xi| / (beta*N) the binomial series for
# |1+z|^alpha is abandoned for the literal formula; the three cancelling
# leading terms are then only ~1e-2 of the total, so the literal evaluation
# keeps ~14 digits.
_SERIES_Z_MAX = 0.5
_SERIES_TERMS = 80


def _binomial_tail(alpha: float, z: np.ndarray) -> np.ndarray:
    """sum_{m>=3} C(alpha, m) z^m for |z| <= _SERIES_Z_MAX, to machine precision.
    The stop rule is tested every 8th term: for alpha < 2 and |z| <= 1/2 the
    terms shrink, and each past the rule's first pass is under half an ulp."""
    coeff = alpha * (alpha - 1.0) * (alpha - 2.0) / 6.0  # C(alpha, 3)
    zpow = z**3
    total = coeff * zpow
    term = np.empty_like(total)
    for m in range(4, _SERIES_TERMS):
        coeff *= (alpha - m + 1.0) / m
        zpow *= z
        total += np.multiply(zpow, coeff, out=term)
        if m % 8 == 0 and np.all(np.abs(term) <= 1e-18 * np.maximum(np.abs(total), 1e-300)):
            break
    return total


def remainder_symbol(alpha: float, n_carrier: float, xi):
    """Cubic-and-higher remainder of the dispersion symbol expanded at N.

    R(xi) = |xi/(beta*N) + 1|^alpha * N^alpha - N^alpha
            - alpha*N^(alpha-1)/beta * xi - xi^2,
    with beta = (alpha(alpha-1)/2 * N^(alpha-2))^(1/2).  The subtracted terms
    are exactly the second-order Taylor polynomial, so R = R'(0) = R''(0) = 0
    and naive evaluation cancels catastrophically for |xi| << beta*N; there
    the equivalent binomial tail N^alpha * sum_{m>=3} C(alpha,m) z^m,
    z = xi/(beta*N), is used instead.
    """
    alpha = _check_alpha(alpha, allow_two=False)
    n_carrier = float(n_carrier)
    if n_carrier < 4.0:
        raise ValidationError(f"carrier frequency must be >= 4, got {n_carrier}")
    n_a = _carrier_power(alpha, n_carrier)
    xi_arr = np.asarray(xi, dtype=float)
    scalar = xi_arr.ndim == 0
    beta_n = np.sqrt(0.5 * alpha * (alpha - 1.0)) * n_carrier ** (alpha / 2.0)
    z = np.atleast_1d(xi_arr / beta_n)

    out = np.empty_like(z)
    small = np.abs(z) <= _SERIES_Z_MAX
    if np.any(small):
        out[small] = n_a * _binomial_tail(alpha, z[small])
    if np.any(~small):
        zl = z[~small]
        out[~small] = n_a * (np.abs(1.0 + zl) ** alpha - 1.0 - alpha * zl) - (
            zl * beta_n
        ) ** 2
    return float(out[0]) if scalar else out.reshape(xi_arr.shape)


def remainder_bound_constant(alpha: float) -> float:
    """Explicit constant c1 with |R(xi)| <= c1 N^(-alpha/2) |xi|^3.

    c1 = max(8*alpha*(alpha(alpha-1)/2)^(-3/2),
             2^(4-alpha)/6 * (2-alpha) * (alpha(alpha-1)/2)^(-1/2)).
    """
    alpha = _check_alpha(alpha, allow_two=False)
    half_prod = 0.5 * alpha * (alpha - 1.0)
    return float(
        max(
            8.0 * alpha * half_prod ** (-1.5),
            (2.0 ** (4.0 - alpha) / 6.0) * (2.0 - alpha) * half_prod ** (-0.5),
        )
    )
