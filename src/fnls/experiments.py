"""Reproducible experiment pipelines with power-law exponent fitting.

Each pipeline measures one scaling claim at desk scale and returns plain
data (ScanResult / dict reports) that the CLI serializes.  Everything runs
on the calling thread, in order, and is deterministic.  Every evolution
streams from evolve_records and keeps no history: the modulated pipelines
reduce each record as it comes, summarize_records a block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .spectral import LENGTH_LIMIT, PASS_OVERHEAD, STEP_FIELDS, Field, Grid, _count, admit
from . import spectral
from .spectral import lattice_mode, make_grid, physical_values
from .symbols import _carrier_power, envelope_scale, group_velocity
from .symbols import remainder_bound_constant, remainder_symbol
from .norms import _sobolev_weight, _weighted_norm, energy, mass, xsb_norm
from .evolution import SimConfig, Trajectory, _step_plan, evolve_records, run_name
from .constructions import (
    BOX_XI_SAMPLES,
    BoxSpec,
    _box_lattices,
    box_data,
    check_contained,
    check_packet_hypotheses,
    check_resolved,
    image_phase_rate,
    image_values,
    lambda_for,
    modulated_wavepacket,
    trilinear_convolution,
)
# none of these is called here; each stays importable from this module
# because perfbench/tracer.py wraps it at this lookup site
from .norms import sobolev_norm  # noqa: F401
from .evolution import evolve, picard_iterate  # noqa: F401
from .constructions import approximate_solution, rescale_solution  # noqa: F401

SUMMARY_CHUNK_VALUES = 2**12  # values in a block of summarize_records

# frequency samples across [-xi_max, xi_max] in scan_remainder
REMAINDER_SAMPLES = 800

# the envelope grid size, and so the band size, of both modulated pipelines
NX_ENVELOPE = 512

# run_approximation_error's envelope width, torus length (before it moves
# onto the lattice), time step and record interval
APPROX_SIGMA = 3.0
APPROX_LENGTH = 48.0
APPROX_DT = 1e-3
APPROX_RECORD_EVERY = 10

# run_illposedness_demo's torus length (before it moves onto the carrier's
# lattice), time-step ladder and record interval; the phase limit is
# dt * max|symbol| of gate 8's runs at dt = 0.2
ILLPOSED_LENGTH = 360.0
ILLPOSED_DT_LADDER = (0.2, 0.1, 0.05, 0.025)
ILLPOSED_PHASE_LIMIT = 6.4
ILLPOSED_RECORD_INTERVAL = 40.0


# kept only for perfbench/tracer.py, which wraps parallel_map and reads
# scan_workers here, until the benchmark drops those targets; no scan calls
# them, since each scan evaluates all its points as one stack
def scan_workers() -> int:
    """Scans run on the calling thread."""
    return 1


def parallel_map(fn, items):
    """[fn(it) for it in items], in order, on the calling thread."""
    return [fn(it) for it in items]


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


def _check_distinct(parameter_name: str, params: np.ndarray) -> None:
    """ValidationError naming the first repeated value of sorted params."""
    repeated = params[1:][params[1:] == params[:-1]]
    if repeated.size:
        raise ValidationError(f"power-law fit needs distinct {parameter_name} values: "
                              f"{parameter_name} = {repeated[0]:g} repeats")


def _check_fit_points(
    parameter_name: str, params: np.ndarray, drop_preasymptotic: bool = True
) -> int:
    """The number of sorted params the fit drops as preasymptotic; a
    ValidationError unless four or more are left to fit, and then one
    naming the first repeated value (_check_distinct)."""
    n_dropped = 1 if (drop_preasymptotic and params.size >= 5) else 0
    if params.size - n_dropped < 4:
        raise ValidationError(f"need >= 4 points to fit, got {params.size - n_dropped}")
    _check_distinct(parameter_name, params)
    return n_dropped


def fit_power_law(
    parameter_name: str, params, values, drop_preasymptotic: bool = True
) -> ScanResult:
    """Least-squares fit of log(value) against log(parameter), in closed
    form: the slope is Sxy / Sxx over centred logs and its standard error
    sqrt(SSR / (n - 2) / Sxx).

    When five or more points are available the smallest parameter is treated
    as preasymptotic and excluded from the fit (it stays in the stored
    points).  Requires at least four fitted points, distinct parameters
    whose fitted logs are not all one value, and positive finite data.
    Values constant to round-off give r_squared = 1.
    """
    params = np.asarray(params, dtype=float)
    values = np.asarray(values, dtype=float)
    if params.shape != values.shape or params.ndim != 1:
        raise ValidationError("params and values must be matching 1-d sequences")
    order = np.argsort(params)
    params, values = params[order], values[order]
    n_dropped = _check_fit_points(parameter_name, params, drop_preasymptotic)
    pf, vf = params[n_dropped:], values[n_dropped:]
    bad = ~((pf > 0) & (vf > 0) & (vf < np.inf))
    if bad.any():
        p, v = pf[bad][0], vf[bad][0]
        raise ValidationError(f"power-law fit needs positive finite data: "
                              f"{parameter_name} = {p:g} gives {v:g}")
    x, y = np.log(pf), np.log(vf)
    dx, dy = x - x.sum() / x.size, y - y.sum() / y.size
    sxx = float((dx * dx).sum())
    if not sxx > 0.0:
        raise ValidationError(f"power-law fit needs distinct log {parameter_name} values: "
                              f"log {parameter_name} = {x[0]:.17g} at every fitted point")
    slope = float((dx * dy).sum()) / sxx
    ssr = float(((dy - slope * dx) ** 2).sum())
    ss_tot = float((dy**2).sum())
    # values equal to a few ulps give log-values whose spread is round-off:
    # that fit is flat, and r^2 of round-off would be noise
    round_off = 4.0 * np.finfo(float).eps * max(1.0, float(np.abs(y).max()))
    flat = ss_tot <= y.size * round_off**2
    return ScanResult(
        parameter_name=parameter_name,
        points=tuple(zip(params.tolist(), values.tolist())),
        fitted_slope=slope,
        slope_stderr=float(np.sqrt(ssr / (y.size - 2) / sxx)),
        r_squared=1.0 if flat else 1.0 - ssr / ss_tot,
        n_dropped=n_dropped,
    )


# ---------------------------------------------------------------------------
# named initial data


def initial_field(grid: Grid, spec: str) -> Field:
    """Parse 'plane:a=0.1,k=2' / 'gaussian:a=1,sigma=0.5,x0=...,k=0' data;
    every parameter must be finite, sigma positive and k in the grid's band
    [-nx/2, nx/2) dk, off which it would alias onto another mode."""
    name, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ValidationError(f"malformed init parameter {item!r}")
            key, value = key.strip(), float(val)
            if not np.isfinite(value):
                raise ValidationError(f"init parameter {key} must be finite, got {value}")
            params[key] = value
    if name == "plane":
        a = params.pop("a", 0.1)
        k = params.pop("k", 1.0)
        _check_in_band(grid, lattice_mode(k, grid.length) * grid.dk)
        values = a * np.exp(1j * k * grid.x)
    elif name == "gaussian":
        a = params.pop("a", 1.0)
        sigma = params.pop("sigma", 0.5)
        x0 = params.pop("x0", 0.5 * grid.length)
        k = params.pop("k", 0.0)
        if not sigma > 0.0:
            raise ValidationError(f"sigma must be positive, got {sigma}")
        _check_in_band(grid, k)
        with np.errstate(over="ignore"):  # a narrow or far packet: exp(-inf) = 0 off its centre
            values = a * np.exp(-0.5 * ((grid.x - x0) / sigma) ** 2 + 1j * k * grid.x)
    else:
        raise ValidationError(f"unknown initial data {name!r}")
    if params:
        raise ValidationError(f"unused init parameters {sorted(params)}")
    return Field.physical(grid, values)


def _check_in_band(grid: Grid, k: float) -> None:
    """ValidationError unless the init frequency k lies in the grid's band."""
    lo, hi = -0.5 * grid.nx * grid.dk, 0.5 * grid.nx * grid.dk
    if not lo <= k < hi:
        raise ValidationError(f"init parameter k = {k:g} lies outside the grid's band "
                              f"[{lo:g}, {hi:g}) = [-nx/2, nx/2) dk")


# ---------------------------------------------------------------------------
# conservation


def drift(values: np.ndarray) -> float:
    """max |values - values[0]|, relative to |values[0]| unless that is 0."""
    ref = values[0]
    scale = abs(ref) if ref != 0 else 1.0
    return float(np.max(np.abs(values - ref)) / scale)


def summarize_records(phi: Field, cfg: SimConfig) -> tuple:
    """(times, masses, energies, max|u|) at each record of one run and the
    samples of its last, reduced in blocks of SUMMARY_CHUNK_VALUES values
    along the last axis, so bit-equal to the same arithmetic over evolve's
    history, into columns made once for the run's record count.  Each
    record is copied into a block buffer made once, and a block is reduced
    when it is full or holds the last record.  Admitted with 4 block
    fields and 48 B a record: the columns and drift's temporaries (48.0 B
    measured by tracemalloc around `fnls evolve` from 50,000 to 150,000
    records at nx 256, 1,024 and 4,096, numpy 2.4)."""
    chunk = max(1, SUMMARY_CHUNK_VALUES // cfg.grid.nx)
    records = evolve_records([(phi, cfg)], 48, 4 * 16 * chunk * cfg.grid.nx)
    n_records = _step_plan(cfg)[2]
    columns = np.empty((4, n_records))
    times, values = np.empty(chunk), np.empty((chunk, cfg.grid.nx), dtype=np.complex128)
    for n, (t, coeffs) in enumerate(records):
        i = n % chunk
        times[i], values[i] = t, coeffs[0]
        if i + 1 < chunk and n + 1 < n_records:
            continue
        part = Trajectory(times[:i + 1], cfg.grid, values[:i + 1])
        block = columns[:, n - i:n + 1]
        block[:3] = part.times, mass(part), energy(part, cfg.alpha, cfg.gamma)
        u = physical_values(part)  # made once energy's temporaries have gone
        block[3] = np.max(np.abs(u), axis=-1)
        u = u[-1].copy()  # the last samples: the block's go before the next block's
    return (*columns, u)


def run_conservation_suite(cfg: SimConfig, phi: Field) -> dict:
    """Mass and energy drift at dt and dt/2 for the data phi."""
    report = {"alpha": cfg.alpha, "gamma": cfg.gamma, "dt": cfg.dt, "t_final": cfg.t_final}
    for tag, config in (("", cfg), ("_half", replace(cfg, dt=cfg.dt / 2))):
        _, masses, energies, _, _ = summarize_records(phi, config)
        report[f"mass_drift{tag}"] = drift(masses)
        report[f"energy_drift{tag}"] = drift(energies)
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
    against the product of the three (s, b) factor norms, for all N at once,
    in input order: the plus boxes and the conjugate boxes are two stacks,
    their convolutions one, and each stack is weighed by one xsb_norm call.
    Each N is checked, a repeated N rejected, and each larger box lattice
    admitted at the dense box's 9 bytes a cell, before any box is built."""
    n_list = [float(n) for n in n_list]
    if len(n_list) < 4:
        raise ValidationError("need at least four box sizes")
    specs = [[BoxSpec(n, alpha, conj) for n in n_list] for conj in (False, True)]
    _check_distinct("N", np.sort(n_list))
    n_tau = np.maximum(*(_box_lattices(band)[2] for band in specs))
    for n, cells in zip(n_list, n_tau * BOX_XI_SAMPLES):
        admit(f"N = {n:g}'s box lattice of {_count(cells)} (tau, xi) cells", "lower N",
              9 * cells, cells)
    plus, minus = (box_data(band) for band in specs)
    with np.errstate(all="ignore"):  # a huge s or b: the fit rejects a nan, inf or 0
        num = xsb_norm(trilinear_convolution(plus, minus, plus), s, b - 1.0, alpha, "-")
        g1 = xsb_norm(plus, s, b, alpha, "-")
        g2 = xsb_norm(minus, s, b, alpha, "+")
        ratio = num / (g1 * g2 * g1)
    ratio, plus, minus, numerator = (fit_power_law("N", n_list, col) for col in (ratio, g1, g2, num))
    return TrilinearScan(ratio, factors=(plus, minus, plus), numerator=numerator)


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
    explicit-constant bound checked at every sample: the symbol of every N
    (a column) at every sample (a row) in one pass.  The fit's point count
    and a repeated N are checked, and then the pass admitted, before any
    symbol is evaluated."""
    if xi_max <= 0:
        raise ValidationError("xi_max must be positive")
    n_list = [float(n) for n in n_list]
    n = np.array(n_list).reshape(-1, 1)
    xi = np.linspace(-xi_max, xi_max, REMAINDER_SAMPLES)
    xi = xi[np.abs(xi) > 1e-9 * xi_max]
    c1 = remainder_bound_constant(alpha)
    _check_fit_points("N", np.sort(n_list))
    cells = n.size * xi.size  # 97.3 B a cell measured, at any alpha
    admit(f"{n.size} carriers' symbols at {xi.size} samples", "give fewer N", 100 * cells, cells)
    # an extreme xi_max overflows the symbol or |xi|^3: the fit rejects the nan
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r = remainder_symbol(alpha, n_list, xi)
        ratio = np.abs(r) / np.abs(xi) ** 3
    scan = fit_power_law("N", n_list, np.max(ratio, axis=-1))
    worst = float(np.max(ratio / (c1 * n ** (-alpha / 2.0))))
    return RemainderScan(scan=scan, c1=c1, bound_ok=worst <= 1.0 + 1e-12, worst_margin=worst)


# ---------------------------------------------------------------------------
# wavepacket norm scan


def wavepacket_grid(m: float, tau_scale: float) -> Grid:
    """The packet's grid at carrier m: the torus of length 64 max(tau_scale, 1),
    the same for every carrier, at the least power-of-two nx whose Nyquist
    frequency is >= 1.5 m + 16/tau_scale: the packet's spectrum there is below
    e^(-288) of its peak at m = 16, tau_scale = 1.  At m = 0 it holds the
    envelope's band alone (512 points at tau_scale = 1).  A tau_scale whose
    torus passes LENGTH_LIMIT is rejected; the rounded grid is admitted at
    make_grid's rate, naming tau_scale and m, before any allocation."""
    if not tau_scale > 0.0:
        raise ValidationError(f"tau_scale must be positive, got {tau_scale}")
    if not 64.0 * tau_scale <= LENGTH_LIMIT:
        raise ValidationError(
            f"tau_scale must be at most LENGTH_LIMIT / 64 = {LENGTH_LIMIT / 64.0:g} "
            f"(the torus is 64 tau_scale long), got {tau_scale:g}"
        )
    length = 64.0 * max(tau_scale, 1.0)
    need = length * (1.5 * m + 16.0 / tau_scale) / np.pi
    with np.errstate(over="ignore"):  # inf or NaN past any grid, which admit rejects
        nx = float(2.0 ** np.ceil(np.log2(max(need, 64.0))))
    admit(f"the packet grid at tau_scale = {tau_scale:g} and m = {m:g}",
          "raise tau_scale or lower m", 16 * STEP_FIELDS * nx, nx + PASS_OVERHEAD)
    return make_grid(int(nx), length)


def scan_wavepacket(s_list, m_list, tau_scale: float = 1.0, amplitude: float = 1.0) -> dict:
    """H^s norm of the modulated packet against the carrier, one scan per s.

    Each packet is sampled once on the envelope's band grid,
    wavepacket_grid(0, tau_scale), as its band and carrier mode m, all
    carriers as one (M, nx) stack (see modulated_wavepacket); band mode k
    is weighed as packet mode k + m dk for every s, all carriers at once.
    A repeated s, whose scans would share one key, is rejected first; the
    scaling hypotheses are checked for every (M, s) pair, then the fit's
    point count and a repeated M, and then the stack is admitted, before
    any packet is sampled.
    """
    s_list = [float(s) for s in s_list]
    m_list = [float(m) for m in m_list]
    if not s_list:
        raise ValidationError("need at least one s")
    repeated = sorted(s for s in set(s_list) if s_list.count(s) > 1)
    if repeated:
        raise ValidationError(f"each s keys one scan: s = {repeated[0]:g} repeats")
    grid = wavepacket_grid(0.0, tau_scale)
    for m in m_list:
        for s in s_list:
            check_packet_hypotheses(m, tau_scale, s)
    _check_fit_points("M", np.sort(m_list))
    cells = len(m_list) * grid.nx  # 48.1-48.6 B a cell measured, at 1 to 7 s
    admit(f"{len(m_list)} packets of {grid.nx} modes", "give fewer M", 56 * cells, cells)
    bands, modes = modulated_wavepacket(m_list, grid, amplitude, tau_scale, 0.5 * grid.length)
    # a huge m, s or tau: inf or nan, which the fit rejects, but for s = 0,
    # whose weight is 1 at any k
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.abs(bands) ** 2
        k2 = (grid.k + modes[:, None] * grid.dk) ** 2
        norms = [np.sqrt(np.sum(power * (1.0 + k2) ** s, axis=-1) / grid.length) for s in s_list]
    return {s: fit_power_law("M", m_list, col) for s, col in zip(s_list, norms)}


# ---------------------------------------------------------------------------
# approximate-solution error scan


def _lattice_length(target: float, n_base: float) -> float:
    """Largest torus length near target putting n_base (hence its dyadic
    multiples) on the frequency lattice."""
    m = max(1, round(n_base * target / (2.0 * np.pi)))
    return 2.0 * np.pi * m / n_base


def _carrier_envelope(alpha: float, n_carrier: float, length: float, sigma: float):
    """beta = envelope_scale(alpha, N), N's envelope grid of NX_ENVELOPE points
    on the torus length/beta, and the samples of e^(-y^2/2), y = (x - L_v/2)/sigma,
    there.  A carrier whose N^alpha overflows is rejected (_carrier_power)."""
    beta = envelope_scale(alpha, n_carrier)  # checks alpha first
    _carrier_power(alpha, n_carrier)
    y_grid = make_grid(NX_ENVELOPE, length / beta)
    with np.errstate(over="ignore"):  # a tiny sigma: exp(-inf) = 0 off the centre
        env = np.exp(-0.5 * ((y_grid.x - 0.5 * y_grid.length) / sigma) ** 2)
    return beta, y_grid, env


def _modulated_runs(
    alpha, length, carriers, sigma, dt, t_final, record_every
) -> list[tuple[Field, SimConfig]]:
    """The (phi, cfg) runs of the modulated pairs, in the packets' rest frame.

    Each amplitude a of each (N, amplitudes) in carriers gives two runs: the
    alpha = 2 NLS run from a e^(-y^2/2) (see _carrier_envelope), and the
    fractional run from beta times its coefficients, the envelope's image at
    t = 0, on N's band of NX_ENVELOPE modes with frame_velocity =
    -group_velocity.  N's NLS runs come first, then its band runs.
    """
    runs = []
    for n, amplitudes in carriers:
        beta, y_grid, env = _carrier_envelope(alpha, n, length, sigma)
        band = make_grid(NX_ENVELOPE, length, carrier=n)
        kw = dict(gamma=1.0, dt=dt, t_final=t_final, record_every=record_every)
        v_cfg = SimConfig(alpha=2.0, grid=y_grid, **kw)
        u_cfg = SimConfig(alpha=alpha, grid=band, frame_velocity=-group_velocity(alpha, n), **kw)
        phis = [Field.physical(y_grid, a * env) for a in amplitudes]
        runs += [(phi, v_cfg) for phi in phis]
        runs += [(Field(band, beta * phi.values), u_cfg) for phi in phis]
    return runs


def _evolve_pairs(runs, alpha: float, remedy: str):
    """Step the runs of _modulated_runs as one batch (evolve_records),
    yielding (t, coefficients, sups) at each record: the batch's record and,
    for each pair in order, the sup so far of the H^((2-alpha)/4) distance
    between its band run and the image of its NLS run (image_values), in an
    array updated in place; a NaN distance stays, as np.max keeps it.  Each
    record is checked first: every run's wrap-around (check_contained), then
    each NLS run's resolution (check_resolved), whose checks of v(0) cover
    the band data; each error names the run.  No record is kept; the
    stepping is admitted with the stacked Sobolev weights and one complex
    field a pair, the record's temporaries, as its workspace, and a refusal
    names the pipeline's remedy."""
    cfgs = [cfg for _, cfg in runs]
    grids = [cfg.grid for cfg in cfgs]
    dx = np.array([[grid.dx] for grid in grids])
    v_rows = [row for row, grid in enumerate(grids) if grid.carrier == 0.0]
    w_rows = [row for row, grid in enumerate(grids) if grid.carrier != 0.0]
    bands = [grids[row] for row in w_rows]
    beta = np.array([[envelope_scale(alpha, band.carrier)] for band in bands])
    phase_rate = np.array([[image_phase_rate(band.carrier, alpha)] for band in bands])
    weight = np.stack([_sobolev_weight(band, (2.0 - alpha) / 4.0) for band in bands])
    length = np.array([band.length for band in bands])
    sups = np.full(len(bands), -np.inf)

    def where(pair: int) -> str:
        return (f"run {v_rows[pair]} of {len(runs)}, envelope of alpha {alpha:g}, "
                f"carrier {bands[pair].carrier:g}")

    workspace = weight.nbytes + 16 * weight.size
    for t, coeffs in evolve_records(runs, workspace_bytes=workspace, remedy=remedy):
        # through fnls.spectral, the lookup site perfbench/tracer.py wraps
        check_contained(spectral.inverse_transform(coeffs, dx), t, lambda row: run_name(cfgs, row))
        v = coeffs[v_rows]
        check_resolved(v, t, where)
        diff = coeffs[w_rows] - image_values(v, t, beta, phase_rate)
        np.maximum(sups, _weighted_norm(diff, weight, length), out=sups)
        yield t, coeffs, sups


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
) -> ApproximationScan:
    """Evolve the fractional equation from modulated NLS data of amplitude
    epsilon and track sup_t of the H^((2-alpha)/4) distance to the modulated
    NLS image, for each carrier, in the packet's rest frame (_modulated_runs),
    record by record (_evolve_pairs).  Repeated carriers are rejected before
    any run is built.  The other parameters are NX_ENVELOPE and the APPROX_*
    constants; config reports them with the length moved onto the smallest
    carrier's lattice."""
    n_list = sorted(float(n) for n in n_list)
    if len(n_list) < 4:
        raise ValidationError(f"need at least four carriers, got {len(n_list)}")
    if not n_list[0] > 0.0:
        raise ValidationError(f"carrier frequency must be positive, got {n_list[0]:g}")
    if not epsilon > 0.0:
        raise ValidationError(f"epsilon must be positive, got {epsilon:g}")
    _check_distinct("N", np.array(n_list))
    length = _lattice_length(APPROX_LENGTH, n_list[0])
    runs = _modulated_runs(
        alpha, length, [(n, [epsilon]) for n in n_list], APPROX_SIGMA,
        APPROX_DT, t_final, APPROX_RECORD_EVERY,
    )
    for _, _, sups in _evolve_pairs(runs, alpha, "lower t_final"):
        pass  # each record updates the running sups in place
    errors = sups.tolist()
    return ApproximationScan(
        scan=fit_power_law("N", n_list, errors, drop_preasymptotic=False),
        errors=dict(zip(n_list, errors)),
        config={
            "alpha": alpha, "epsilon": epsilon, "t_final": t_final,
            "sigma": APPROX_SIGMA, "length": length,
            "nx_envelope": NX_ENVELOPE, "dt": APPROX_DT,
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
) -> dict:
    """Full separation pipeline on one carrier.

    Evolves the data pair a_j e^(-y^2/2), y = (x - L/2)/sigma, at alpha = 2,
    lifts both to modulated approximate solutions, evolves the fractional
    equation from their initial data in the packet's rest frame, rescales by
    the norm-equalizing zoom factor, and reports the measured data norms,
    data separation, and maximal solution separation in H^s.  a_1 is
    calibrated through the (linear) data pipeline so the reported data norm
    equals epsilon, in (0, 1), and a_2 = a_1 (1 + delta/epsilon) > a_1 so
    the data separation equals delta, in (0, epsilon/2].  t_internal is the
    evolution window before time rescaling; the reported physical window is
    t_internal / lambda^alpha.  The torus is ILLPOSED_LENGTH and the
    envelope grid NX_ENVELOPE points.  Its runs come from _modulated_runs,
    built once, and each record is reduced as it is stepped (_evolve_pairs):
    the band runs' coefficients are the zoomed pair's on rescale_solution's
    grid, weighed there in H^s.

    The step is the largest of ILLPOSED_DT_LADDER (0.025 * 2^j, up to 0.2)
    whose phase dt * max|symbol| over the evolutions stays within
    ILLPOSED_PHASE_LIMIT, else the smallest: the runs are built at the
    smallest and their configs re-made at dt.  States are recorded every
    ILLPOSED_RECORD_INTERVAL time units.  The report gives the resolved dt,
    record_every, nx_envelope and the length moved onto the carrier's
    lattice.  At gate 8's parameters this picks the cap dt = 0.2, the
    largest 0.025 * 2^j whose error estimate
    (4/3) max_X |X(dt) - X(dt/2)| / |X(dt/2)| over the eight reported
    numbers X stays within 1e-5; Strang splitting is second order, so
    halving dt divides that estimate by 4.  Measured there: 1.5e-6 at
    dt = 0.1, 6.0e-6 at dt = 0.2 and 2.4e-5 at dt = 0.4.  The budget was
    measured at gate 8's parameters only; elsewhere the phase limit keeps
    the step no coarser than there, relative to the fastest linear phase.
    """
    if not sigma > 0.0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    if not (0.0 < epsilon < 1.0):
        raise ValidationError("epsilon must lie in (0, 1)")
    # a delta <= 0, or one too small to move 1 + delta/epsilon off 1, gives a_2 <= a_1
    if not (1.0 < 1.0 + delta / epsilon and delta <= 0.5 * epsilon):
        raise ValidationError(f"delta must satisfy 0 < delta <= epsilon/2 with a_2 = a_1 (1 + "
                              f"delta/epsilon) > a_1 in floating point, got delta = {delta:g}")
    lam = lambda_for(s, alpha, n_carrier)  # checks alpha and the carrier first
    lo = (2.0 - 3.0 * alpha) / (4.0 * (alpha + 1.0))
    hi = (2.0 - alpha) / 4.0
    if not (lo < s < hi):
        raise ValidationError(
            f"s = {s} outside the separation range ({lo:.6g}, {hi:.6g})"
        )
    length = _lattice_length(ILLPOSED_LENGTH, n_carrier)

    # a unit-amplitude probe's image at t = 0, beta times its coefficients, fixes the gain;
    # its resolution is the first record's check of the pair's envelopes
    beta, y_grid, env = _carrier_envelope(alpha, n_carrier, length, sigma)
    probe = Field.physical(y_grid, env).values
    zoom = make_grid(NX_ENVELOPE, length / lam, carrier=lam * n_carrier)
    weight = _sobolev_weight(zoom, s)
    a1 = epsilon / _weighted_norm(beta * probe, weight, zoom.length)
    amplitudes = (a1, a1 * (1.0 + delta / epsilon))

    smallest = ILLPOSED_DT_LADDER[-1]
    runs = _modulated_runs(
        alpha, length, [(n_carrier, amplitudes)], sigma, smallest, t_internal, 1,
    )
    peak = max(float(np.max(np.abs(cfg.symbol()))) for _, cfg in runs)
    dt = next(
        (h for h in ILLPOSED_DT_LADDER if h * peak <= ILLPOSED_PHASE_LIMIT + 1e-12),
        smallest,
    )
    record_every = max(1, round(ILLPOSED_RECORD_INTERVAL / dt))
    runs = [(phi, replace(cfg, dt=dt, record_every=record_every)) for phi, cfg in runs]
    # rows v1, v2, w1, w2: the band runs' coefficients are the zoomed pair's
    for i, (t, coeffs, sups) in enumerate(_evolve_pairs(runs, alpha, "lower t_internal")):
        sep = _weighted_norm(coeffs[2] - coeffs[3], weight, zoom.length)
        if i == 0:
            norm1, norm2 = (_weighted_norm(coeffs[row], weight, zoom.length) for row in (2, 3))
            sep0 = sep
        # np.argmax's pick: the first largest separation, or the first NaN
        if i == 0 or (not np.isnan(sep_max) and not sep <= sep_max):
            sep_max, t_max = sep, t * lam ** (-alpha)
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
        "dt": dt,
        "record_every": record_every,
        "nx_envelope": NX_ENVELOPE,
        "length": length,
        "data_norm_1": norm1,
        "data_norm_2": norm2,
        "data_separation": float(sep0),
        "solution_separation_max": float(sep_max),
        "t_of_max": float(t_max),
        "amplification": float(sep_max / sep0),
        "approx_error_sup_1": float(sups[0]),
        "approx_error_sup_2": float(sups[1]),
    }
