"""Reproducible experiment pipelines with power-law exponent fitting.

Each pipeline measures one scaling claim at desk scale and returns plain
data (ScanResult / dict reports) that the CLI serializes.  Scans
parallelize over the parameter values; FNLS_THREADS caps the worker count.
Every pipeline is deterministic for a fixed configuration.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .spectral import Field, Grid, cubic_values, make_grid, spectral_values
from .symbols import envelope_scale, group_velocity, remainder_bound_constant, remainder_symbol
from .norms import energy, mass, sobolev_norm, xsb_norm
# picard_iterate is not called here; it stays importable from this module
# because perfbench/tracer.py wraps it at this lookup site
from .evolution import SimConfig, Trajectory, evolve, picard_iterate  # noqa: F401
from .constructions import (
    BoxSpec,
    WavepacketSpec,
    approximate_solution,
    box_data,
    lambda_for,
    modulated_wavepacket,
    nls_pair,
    rescale_solution,
    trilinear_convolution,
)

# frequency samples across [-xi_max, xi_max] in scan_remainder
REMAINDER_SAMPLES = 800


def scan_workers() -> int:
    """Worker cap for parameter scans (FNLS_THREADS wins when set)."""
    env = os.environ.get("FNLS_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValidationError(f"FNLS_THREADS must be an integer, got {env!r}") from exc
    return min(4, os.cpu_count() or 1)


def parallel_map(fn, items):
    """Map preserving order; each item independent, so results do not depend
    on the worker count."""
    items = list(items)
    workers = min(scan_workers(), len(items))
    if workers <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class ScanResult:
    """(parameter, value) points with a fitted log-log slope."""

    parameter_name: str
    points: tuple
    fitted_slope: float
    slope_stderr: float
    r_squared: float
    n_dropped: int = 0

    @property
    def parameters(self):
        return np.array([p for p, _ in self.points])

    @property
    def values(self):
        return np.array([v for _, v in self.points])


def fit_power_law(
    parameter_name: str, params, values, drop_preasymptotic: bool = True
) -> ScanResult:
    """Least-squares fit of log(value) against log(parameter).

    When five or more points are available the smallest parameter is treated
    as preasymptotic and excluded from the fit (it stays in the stored
    points).  Requires at least four fitted points and positive data.
    """
    params = np.asarray(params, dtype=float)
    values = np.asarray(values, dtype=float)
    if params.shape != values.shape or params.ndim != 1:
        raise ValidationError("params and values must be matching 1-d sequences")
    order = np.argsort(params)
    params, values = params[order], values[order]
    n_dropped = 1 if (drop_preasymptotic and params.size >= 5) else 0
    pf, vf = params[n_dropped:], values[n_dropped:]
    if pf.size < 4:
        raise ValidationError(f"need >= 4 points to fit, got {pf.size}")
    if np.any(pf <= 0) or np.any(vf <= 0):
        raise ValidationError("power-law fit needs positive data")
    x, y = np.log(pf), np.log(vf)
    (slope, intercept), cov = np.polyfit(x, y, 1, cov=True)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return ScanResult(
        parameter_name=parameter_name,
        points=tuple(zip(params.tolist(), values.tolist())),
        fitted_slope=float(slope),
        slope_stderr=float(np.sqrt(max(cov[0, 0], 0.0))),
        r_squared=r2,
        n_dropped=n_dropped,
    )


# ---------------------------------------------------------------------------
# named initial data


def initial_field(grid: Grid, spec: str) -> Field:
    """Parse 'plane:a=0.1,k=2' / 'gaussian:a=1,sigma=0.5,x0=...,k=0' data."""
    name, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ValidationError(f"malformed init parameter {item!r}")
            params[key.strip()] = float(val)
    if name == "plane":
        a = params.pop("a", 0.1)
        k = params.pop("k", 1.0)
        m = k * grid.length / (2.0 * np.pi)
        if abs(m - round(m)) > 1e-9 * max(1.0, abs(m)):
            raise ValidationError(f"plane-wave frequency {k} not on the lattice")
        values = a * np.exp(1j * k * grid.x)
    elif name == "gaussian":
        a = params.pop("a", 1.0)
        sigma = params.pop("sigma", 0.5)
        x0 = params.pop("x0", 0.5 * grid.length)
        k = params.pop("k", 0.0)
        values = a * np.exp(-0.5 * ((grid.x - x0) / sigma) ** 2 + 1j * k * grid.x)
    else:
        raise ValidationError(f"unknown initial data {name!r}")
    if params:
        raise ValidationError(f"unused init parameters {sorted(params)}")
    return Field.physical(grid, values)


# ---------------------------------------------------------------------------
# conservation


def _drift(values: np.ndarray) -> float:
    ref = values[0]
    scale = abs(ref) if ref != 0 else 1.0
    return float(np.max(np.abs(values - ref)) / scale)


def run_conservation_suite(cfg: SimConfig, init: "Field | str") -> dict:
    """Mass and energy drift at dt and dt/2 for the given data."""
    phi = initial_field(cfg.grid, init) if isinstance(init, str) else init
    report = {"alpha": cfg.alpha, "gamma": cfg.gamma, "dt": cfg.dt, "t_final": cfg.t_final}
    for tag, config in (("", cfg), ("_half", replace(cfg, dt=cfg.dt / 2))):
        traj = evolve(phi, config)
        masses = np.array([mass(s) for s in traj.states])
        energies = np.array([energy(s, cfg.alpha, cfg.gamma) for s in traj.states])
        report[f"mass_drift{tag}"] = _drift(masses)
        report[f"energy_drift{tag}"] = _drift(energies)
    drift_full = report["energy_drift"]
    drift_half = report["energy_drift_half"]
    report["energy_drift_ratio"] = drift_full / drift_half if drift_half > 0 else np.inf
    return report


# ---------------------------------------------------------------------------
# trilinear counterexample scan


@dataclass(frozen=True)
class TrilinearScan:
    ratio: ScanResult
    factors: tuple
    numerator: ScanResult


def scan_trilinear(alpha: float, s: float, b: float, n_list) -> TrilinearScan:
    """Resonant-box norms: numerator |u1*conj(u2)*u3| in the (s, b-1) norm
    against the product of the three (s, b) factor norms."""
    n_list = [float(n) for n in n_list]
    if len(n_list) < 4:
        raise ValidationError("need at least four box sizes")

    def one(n):
        plus = box_data(BoxSpec(n=n, alpha=alpha))
        minus = box_data(BoxSpec(n=n, alpha=alpha, conjugate=True))
        conv = trilinear_convolution(plus, minus, plus)
        num = xsb_norm(conv, s, b - 1.0, alpha, "-")
        g1 = xsb_norm(plus, s, b, alpha, "-")
        g2 = xsb_norm(minus, s, b, alpha, "+")
        return num, g1, g2, g1

    rows = parallel_map(one, n_list)
    nums = [r[0] for r in rows]
    ratios = [r[0] / (r[1] * r[2] * r[3]) for r in rows]
    factor_scans = tuple(
        fit_power_law("N", n_list, [r[j] for r in rows]) for j in (1, 2, 3)
    )
    return TrilinearScan(
        ratio=fit_power_law("N", n_list, ratios),
        factors=factor_scans,
        numerator=fit_power_law("N", n_list, nums),
    )


# ---------------------------------------------------------------------------
# remainder-symbol scan


@dataclass(frozen=True)
class RemainderScan:
    scan: ScanResult
    c1: float
    bound_ok: bool
    worst_margin: float  # max over samples of |R| / (c1 N^(-a/2) |xi|^3)


def scan_remainder(alpha: float, n_list, xi_max: float = 0.5) -> RemainderScan:
    """sup |R(xi)|/|xi|^3 over 0 < |xi| <= xi_max for each N, with the
    explicit-constant bound checked at every sample."""
    if xi_max <= 0:
        raise ValidationError("xi_max must be positive")
    n_list = [float(n) for n in n_list]
    xi = np.linspace(-xi_max, xi_max, REMAINDER_SAMPLES)
    xi = xi[np.abs(xi) > 1e-9 * xi_max]
    c1 = remainder_bound_constant(alpha)

    def one(n):
        r = remainder_symbol(alpha, n, xi)
        ratio = np.abs(r) / np.abs(xi) ** 3
        margin = ratio / (c1 * n ** (-alpha / 2.0))
        return float(np.max(ratio)), float(np.max(margin))

    rows = parallel_map(one, n_list)
    sups = [r[0] for r in rows]
    worst = max(r[1] for r in rows)
    return RemainderScan(
        scan=fit_power_law("N", n_list, sups),
        c1=c1,
        bound_ok=worst <= 1.0 + 1e-12,
        worst_margin=worst,
    )


# ---------------------------------------------------------------------------
# wavepacket norm scan


def wavepacket_grid(m_max: float, tau_scale: float) -> Grid:
    """Grid holding the envelope and resolving carriers up to m_max."""
    length = 64.0 * max(tau_scale, 1.0)
    need = length * (1.5 * m_max + 16.0 / tau_scale) / np.pi
    nx = 1 << int(np.ceil(np.log2(max(need, 64.0))))
    return make_grid(nx, length)


def scan_wavepacket(
    s_list, m_list, tau_scale: float = 1.0, amplitude: float = 1.0,
    profile: str = "gaussian", grid: Grid | None = None,
) -> dict:
    """H^s norm of the modulated packet against the carrier, one scan per s."""
    m_list = [float(m) for m in m_list]
    if grid is None:
        grid = wavepacket_grid(max(m_list), tau_scale)
    x0 = 0.5 * grid.length

    def norms_for(s):
        def one(m):
            spec = WavepacketSpec(
                amplitude=amplitude, carrier=m, tau_scale=tau_scale,
                x0=x0, s=s, profile=profile,
            )
            return sobolev_norm(modulated_wavepacket(spec, grid), s)

        return fit_power_law("M", m_list, parallel_map(one, m_list))

    return {float(s): norms_for(float(s)) for s in s_list}


# ---------------------------------------------------------------------------
# approximate-solution error scan


def _lattice_length(target: float, n_base: float) -> float:
    """Largest torus length near target putting n_base (hence its dyadic
    multiples) on the frequency lattice."""
    m = max(1, round(n_base * target / (2.0 * np.pi)))
    return 2.0 * np.pi * m / n_base


@dataclass(frozen=True)
class ApproximationScan:
    scan: ScanResult
    errors: dict  # N -> sup_t H^((2-alpha)/4) error
    config: dict


def run_approximation_error(
    alpha: float,
    n_list,
    epsilon: float = 0.2,
    t_final: float = 0.5,
    sigma: float = 3.0,
    length: float = 48.0,
    nx: int = 2048,
    nx_envelope: int = 512,
    dt: float = 1e-3,
    record_every: int = 10,
) -> ApproximationScan:
    """Evolve the fractional equation from modulated NLS data and track
    sup_t of the H^((2-alpha)/4) distance to the modulated NLS image."""
    n_list = sorted(float(n) for n in n_list)
    length = _lattice_length(length, n_list[0])
    x_grid = make_grid(nx, length)
    s_err = (2.0 - alpha) / 4.0

    def one(n):
        beta = envelope_scale(alpha, n)
        y_grid = make_grid(nx_envelope, length / beta)
        env = epsilon * np.exp(-0.5 * ((y_grid.x - 0.5 * y_grid.length) / sigma) ** 2)
        phi = Field.physical(y_grid, env.astype(np.complex128))
        v_cfg = SimConfig(
            alpha=2.0, gamma=1.0, dt=dt, t_final=t_final,
            grid=y_grid, record_every=record_every,
        )
        v_traj = evolve(phi, v_cfg)
        v_image = approximate_solution(v_traj, n, alpha, x_grid)
        u_cfg = SimConfig(
            alpha=alpha, gamma=1.0, dt=dt, t_final=t_final,
            grid=x_grid, record_every=record_every, check_tail=True,
        )
        u_traj = evolve(v_image.states[0], u_cfg)
        errs = [
            sobolev_norm(u_s - v_s, s_err)
            for u_s, v_s in zip(u_traj.states, v_image.states)
        ]
        return float(np.max(errs))

    errors = parallel_map(one, n_list)
    return ApproximationScan(
        scan=fit_power_law("N", n_list, errors, drop_preasymptotic=False),
        errors=dict(zip(n_list, errors)),
        config={
            "alpha": alpha, "epsilon": epsilon, "t_final": t_final,
            "sigma": sigma, "length": length, "nx": nx,
            "nx_envelope": nx_envelope, "dt": dt,
        },
    )


# ---------------------------------------------------------------------------
# separation (ill-posedness) demo


def run_illposedness_demo(
    alpha: float,
    s: float,
    epsilon: float,
    delta: float,
    t_internal: float,
    n_carrier: float,
    sigma: float = 16.0,
    length: float = 360.0,
    nx: int = 4096,
    nx_envelope: int = 2048,
    dt: float = 0.025,
    record_every: int = 1600,
) -> dict:
    """Full separation pipeline on one carrier.

    Builds the proportional NLS pair, evolves it at alpha = 2, lifts both to
    modulated approximate solutions, evolves the fractional equation from
    their initial data in the packet's rest frame, rescales by the
    norm-equalizing zoom factor, and reports the measured data norms, data
    separation, and maximal solution separation in H^s.  The amplitude is
    calibrated through the (linear) data pipeline so the reported data norm
    equals epsilon and the reported data separation equals delta.  t_internal
    is the evolution window before time rescaling; the reported physical
    window is t_internal / lambda^alpha.  The rescaled grid has 2 * nx
    points.
    """
    lo = (2.0 - 3.0 * alpha) / (4.0 * (alpha + 1.0))
    hi = (2.0 - alpha) / 4.0
    if not (lo < s < hi):
        raise ValidationError(
            f"s = {s} outside the separation range ({lo:.6g}, {hi:.6g})"
        )
    lam = lambda_for(s, alpha, n_carrier)
    length = _lattice_length(length, n_carrier)
    x_grid = make_grid(nx, length)
    target_grid = make_grid(2 * nx, length / lam)
    beta = envelope_scale(alpha, n_carrier)
    vel = group_velocity(alpha, n_carrier)
    y_grid = make_grid(nx_envelope, length / beta)

    # unit-amplitude probe through the (linear) data pipeline fixes the gain
    env = np.exp(-0.5 * ((y_grid.x - 0.5 * y_grid.length) / sigma) ** 2)
    probe = Field.physical(y_grid, env.astype(np.complex128))
    probe_traj = Trajectory(np.array([0.0]), [probe])
    probe_image = approximate_solution(probe_traj, n_carrier, alpha, x_grid)
    probe_scaled = rescale_solution(probe_image, lam, alpha, target_grid)
    gain = sobolev_norm(probe_scaled.states[0], s)
    a1 = epsilon / gain

    phi1, phi2 = nls_pair(
        epsilon=a1 * sobolev_norm(probe, s),
        delta=(delta / epsilon) * a1 * sobolev_norm(probe, s),
        grid=y_grid,
        sigma=sigma,
        s=s,
    )

    v_cfg = SimConfig(
        alpha=2.0, gamma=1.0, dt=dt, t_final=t_internal,
        grid=y_grid, record_every=record_every, check_tail=True,
    )
    u_cfg = SimConfig(
        alpha=alpha, gamma=1.0, dt=dt, t_final=t_internal,
        grid=x_grid, record_every=record_every,
        frame_velocity=-vel, check_tail=True,
    )
    s_track = (2.0 - alpha) / 4.0

    def branch(phi):
        v_traj = evolve(phi, v_cfg)
        v_image = approximate_solution(
            v_traj, n_carrier, alpha, x_grid, frame_velocity=-vel
        )
        u_traj = evolve(v_image.states[0], u_cfg)
        track = max(
            sobolev_norm(a - b, s_track)
            for a, b in zip(u_traj.states, v_image.states)
        )
        return rescale_solution(u_traj, lam, alpha, target_grid), track

    (u1, track1), (u2, track2) = parallel_map(branch, [phi1, phi2])

    sep = np.array([sobolev_norm(a - b, s) for a, b in zip(u1.states, u2.states)])
    norm1 = sobolev_norm(u1.states[0], s)
    norm2 = sobolev_norm(u2.states[0], s)
    i_max = int(np.argmax(sep))
    return {
        "alpha": alpha,
        "s": s,
        "epsilon": epsilon,
        "delta": delta,
        "n_carrier": n_carrier,
        "lambda": lam,
        "sigma": sigma,
        "t_internal": t_internal,
        "t_physical": t_internal / lam**alpha,
        "data_norm_1": norm1,
        "data_norm_2": norm2,
        "data_separation": float(sep[0]),
        "solution_separation_max": float(sep[i_max]),
        "t_of_max": float(u1.times[i_max]),
        "amplification": float(sep[i_max] / sep[0]) if sep[0] > 0 else np.inf,
        "approx_error_sup_1": track1,
        "approx_error_sup_2": track2,
    }


# ---------------------------------------------------------------------------
# PDE residual (verification utility)


def pde_residual(
    traj: Trajectory,
    alpha: float,
    gamma: float,
    frame_velocity: float = 0.0,
    phase_rate: float = 0.0,
) -> np.ndarray:
    """L^2 norms of i u_t + |D|^alpha u (+ frame terms) - gamma |u|^2 u at the
    interior recorded times, with u_t from a fourth-order central difference.

    phase_rate theta applies when the stored states were pre-rotated by
    exp(-i theta t): the linear symbol is then shifted by -theta.
    """
    times = traj.times
    if times.size < 5:
        raise ValidationError("need at least five recorded states")
    dt = float(times[1] - times[0])
    grid = traj.grid
    symbol = np.abs(grid.k) ** alpha + frame_velocity * grid.k - phase_rate
    u = np.stack([spectral_values(st) for st in traj.states])
    out = []
    for n in range(2, times.size - 2):
        du = (-u[n + 2] + 8 * u[n + 1] - 8 * u[n - 1] + u[n - 2]) / (12.0 * dt)
        resid = 1j * du + symbol * u[n] - gamma * cubic_values(u[n], grid)
        out.append(float(np.linalg.norm(resid) / np.sqrt(grid.length)))
    return np.array(out)
