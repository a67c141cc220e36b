import time
import tracemalloc

import numpy as np
import pytest

import fnls.experiments as experiments
from fnls.constructions import (
    approximate_solution,
    remodulate,
)
from fnls.norms import sobolev_norm

from fnls.errors import ValidationError
from fnls.spectral import Field, make_grid, physical_values
from fnls.evolution import SimConfig, Trajectory
from fnls.experiments import (
    fit_power_law,
    initial_field,
    run_conservation_suite,
    run_illposedness_demo,
    scan_remainder,
    scan_trilinear,
    scan_wavepacket,
    wavepacket_grid,
)

from oracles import pde_residual


def test_fit_power_law_recovers_exponent():
    params = np.array([4.0, 8.0, 16.0, 32.0])
    values = 2.7 * params**-1.31
    res = fit_power_law("N", params, values)
    assert res.fitted_slope == pytest.approx(-1.31, abs=1e-12)
    assert res.r_squared == pytest.approx(1.0, abs=1e-12)
    assert res.n_dropped == 0
    assert res.slope_stderr < 1e-10


def test_fit_power_law_drops_preasymptotic_point():
    params = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    values = 5.0 * params**0.5
    values[0] *= 3.0  # corrupt the smallest
    res = fit_power_law("N", params, values)
    assert res.n_dropped == 1
    assert len(res.points) == 5  # all measurements retained
    assert res.fitted_slope == pytest.approx(0.5, abs=1e-12)
    kept = fit_power_law("N", params, values, drop_preasymptotic=False)
    assert abs(kept.fitted_slope - 0.5) > 0.05


def test_fit_power_law_flat_to_the_last_bit_has_unit_r_squared():
    # constants perturbed in their last bit, as the M-independent L^2 norms
    # of a wavepacket scan are: the spread is round-off, the fit is flat
    c = 1.3313353575
    for pattern in ([0, 1, 0, -1, 1, 0], [1, 0, 0, 0, 0, -1], [0, 0, 0, 0, 0, 1]):
        values = c + np.array(pattern) * np.spacing(c)
        res = fit_power_law("M", [16.0, 32.0, 64.0, 128.0, 256.0, 512.0], values)
        assert res.r_squared == 1.0
        assert abs(res.fitted_slope) < 1e-15


def test_fit_power_law_validation():
    with pytest.raises(ValidationError):
        fit_power_law("N", [1.0, 2.0, 4.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        fit_power_law("N", [1.0, 2.0, 4.0, 8.0], [1.0, -2.0, 3.0, 4.0])


def test_initial_field_parsing():
    grid = make_grid(64, 2 * np.pi)
    f = initial_field(grid, "plane:a=0.5,k=3")
    assert np.allclose(physical_values(f), 0.5 * np.exp(1j * 3 * grid.x))
    g = initial_field(grid, "gaussian:a=2,sigma=0.3")
    assert np.max(np.abs(physical_values(g))) == pytest.approx(2.0, rel=1e-6)
    with pytest.raises(ValidationError):
        initial_field(grid, "plane:a=1,k=0.5")  # off-lattice frequency
    with pytest.raises(ValidationError):
        initial_field(grid, "soliton:a=1")
    with pytest.raises(ValidationError):
        initial_field(grid, "plane:a=1,bogus=2")


def test_conservation_suite_report():
    grid = make_grid(128, 2 * np.pi)
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=2e-3, t_final=0.2, grid=grid, record_every=20)
    rep = run_conservation_suite(cfg, "gaussian:a=1,sigma=0.5")
    assert rep["mass_drift"] <= 1e-11
    assert 2.5 <= rep["energy_drift_ratio"] <= 5.5
    # gamma = 0: the linear step is exact, so both drifts sit at round-off
    cfg0 = SimConfig(alpha=1.5, gamma=0.0, dt=2e-3, t_final=0.2, grid=grid, record_every=20)
    rep0 = run_conservation_suite(cfg0, "gaussian:a=1,sigma=0.5")
    assert rep0["energy_drift"] <= 1e-10
    assert rep0["mass_drift"] <= 1e-11


def test_scan_remainder_small():
    res = scan_remainder(1.5, [16, 32, 64, 128], xi_max=0.5)
    assert res.bound_ok
    assert res.scan.fitted_slope == pytest.approx(-0.75, abs=0.1)


def test_scan_trilinear_small():
    scan = scan_trilinear(1.5, 0.0, 0.51, [16, 32, 64, 128])
    assert scan.factors[0].fitted_slope == pytest.approx(0.125, abs=0.15)
    assert scan.ratio.fitted_slope == pytest.approx(0.25, abs=0.15)


def test_scan_trilinear_needs_four_points():
    with pytest.raises(ValidationError):
        scan_trilinear(1.5, 0.0, 0.51, [16, 32, 64])


def test_scan_trilinear_rejects_a_lattice_over_the_memory_limit(monkeypatch):
    # box_data's (tau, xi) difference array and mask take 9 bytes a cell:
    # at N = 2^26 that is 1,146 MiB, over the 1 GiB limit, and the box
    # sizes alone reject it, before any box is built
    def no_box(spec):
        raise AssertionError("box built")

    monkeypatch.setattr(experiments, "box_data", no_box)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="1146 MiB box lattice"):
            scan_trilinear(1.5, 0.0, 0.51, [2**j for j in range(4, 27)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # N = 2^25 (681 MiB) passes the check and reaches the boxes
    with pytest.raises(AssertionError, match="box built"):
        scan_trilinear(1.5, 0.0, 0.51, [2**j for j in range(4, 26)])


def test_scan_wavepacket_small():
    scans = scan_wavepacket([0.25], [16, 32, 64, 128])
    assert scans[0.25].fitted_slope == pytest.approx(0.25, abs=0.05)


def test_scan_wavepacket_shares_packets_across_s():
    m_list = [16, 32, 64, 128]
    both = scan_wavepacket([-0.25, 0.5], m_list, amplitude=1.7)
    assert list(both) == [-0.25, 0.5]
    for s in both:
        assert both[s] == scan_wavepacket([s], m_list, amplitude=1.7)[s]


def test_scan_wavepacket_matches_shared_grid_reference():
    # reference: each packet A e^(iMx) w sampled on the full grid
    # wavepacket_grid(M, tau), whose nx grows with M on the torus that every
    # carrier shares, and weighed by that grid's own modes
    s_list = [-0.25, 0.0, 0.25]
    amplitude = 1.7
    inputs = [
        ([2.0**j for j in range(4, 15)], 1.0),
        (list(np.geomspace(16.0, 1000.0, 7)), 1.0),  # off the lattice
        ([2.0**j for j in range(4, 12)], 0.25),
        ([2.0**j for j in range(4, 12)], 3.0),
    ]
    for m_list, tau in inputs:
        reference = {s: [] for s in s_list}
        for m in m_list:
            full = wavepacket_grid(m, tau)
            x0 = 0.5 * full.length
            samples = amplitude * np.exp(1j * m * full.x - 0.5 * ((full.x - x0) / tau) ** 2)
            packet = Field.physical(full, samples)
            for s in s_list:
                reference[s].append(sobolev_norm(packet, s))
        scans = scan_wavepacket(s_list, m_list, tau_scale=tau, amplitude=amplitude)
        for s in s_list:
            np.testing.assert_allclose(scans[s].values, reference[s], rtol=1e-14, atol=0)
            ref_slope = fit_power_law("M", m_list, reference[s]).fitted_slope
            if s != 0.0:
                assert scans[s].fitted_slope == pytest.approx(ref_slope, rel=1e-12, abs=0)


def test_scan_wavepacket_samples_only_the_envelope_band(monkeypatch):
    # carriers to 2^30 would need a 2^32-point grid sampled per carrier;
    # the band grid has 512 points whatever the carrier
    sizes = []
    make_grid_ = experiments.make_grid

    def small_grid(nx, length):
        assert nx <= 512
        sizes.append(nx)
        return make_grid_(nx, length)

    monkeypatch.setattr(experiments, "make_grid", small_grid)
    m_list = [2.0**j for j in range(20, 31)]
    start = time.perf_counter()
    scans = scan_wavepacket([-0.25, 0.0, 0.25], m_list)
    elapsed = time.perf_counter() - start
    assert sizes == [512]
    assert elapsed < 0.5  # about 5 ms on a 2-core host
    for s, scan in scans.items():
        assert scan.fitted_slope == pytest.approx(s, abs=1e-6)


@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
def test_scan_wavepacket_rejects_a_width_that_is_not_positive(monkeypatch, tau):
    # before any grid is built: tau = 0 used to divide by zero in
    # wavepacket_grid before WavepacketSpec could check it
    monkeypatch.setattr(experiments, "make_grid", None)
    with pytest.raises(ValidationError, match="tau_scale must be positive"):
        scan_wavepacket([0.0], [16, 32, 64, 128], tau_scale=tau)


def test_scan_wavepacket_checks_every_s():
    # the packet is shared, but each s keeps its own hypothesis check:
    # the envelope smoothness (1) is below |s| = 1.5
    with pytest.raises(ValidationError):
        scan_wavepacket([0.0, -1.5], [16, 32, 64, 128])


def test_pde_residual_detects_wrong_dispersion():
    # a free single-mode trajectory has zero residual only at its own alpha
    from fnls.evolution import Trajectory

    grid = make_grid(128, 2 * np.pi)
    alpha, k, dt = 1.5, 2.0, 1e-3
    times = dt * np.arange(9)
    values = [
        Field.physical(grid, 0.5 * np.exp(1j * (k * grid.x + abs(k) ** alpha * t))).values
        for t in times
    ]
    traj = Trajectory(times, grid, values)
    good = np.max(pde_residual(traj, alpha, 0.0))
    bad = np.max(pde_residual(traj, 1.2, 0.0))
    assert good < 1e-6
    assert bad > 1e-2


def _proportional_pair(grid, eps, delta, sigma):
    """a_j e^(-y^2/2), y = (x - L/2)/sigma, with a_1 setting the first's L^2
    norm to eps and a_2 = a_1 (1 + delta/eps), the shape of
    run_illposedness_demo's pair."""
    env = np.exp(-0.5 * ((grid.x - 0.5 * grid.length) / sigma) ** 2)
    a1 = eps / sobolev_norm(Field.physical(grid, env), 0.0)
    return [Field.physical(grid, a * env) for a in (a1, a1 * (1.0 + delta / eps))]


def test_nls_pair_separation_grows_tenfold():
    # the proportional pair decoheres under the alpha = 2 flow: relative
    # separation grows well past 10x the initial gap within the window
    from fnls.evolution import evolve_together

    grid = make_grid(512, 1200.0)
    eps, delta, sigma = 0.64, 0.0064, 16.0
    p1, p2 = _proportional_pair(grid, eps, delta, sigma)
    assert sobolev_norm(p1, 0.0) == pytest.approx(eps, rel=1e-12)
    cfg = SimConfig(alpha=2.0, gamma=1.0, dt=0.1, t_final=360.0, grid=grid, record_every=360)
    t1, t2 = evolve_together([(p1, cfg), (p2, cfg)])
    seps = sobolev_norm(t1 - t2, 0.0)
    assert seps[0] == pytest.approx(delta, rel=0.01)
    assert max(seps) >= 10.0 * seps[0]


def test_illposedness_demo_range_check(monkeypatch):
    # bad inputs are rejected before any work: no grid is built, nothing is
    # lifted or evolved (sigma = 0 used to step on a nan envelope)
    monkeypatch.setattr(experiments, "make_grid", None)
    monkeypatch.setattr(experiments, "approximate_solution", None)
    monkeypatch.setattr(experiments, "evolve_together", None)
    for s, epsilon, delta, sigma, message in [
        (0.2, 0.5, 0.005, 16.0, "outside the separation range"),
        (-0.3, 0.5, 0.005, 16.0, "outside the separation range"),
        (0.0, 0.5, 0.005, 0.0, "sigma must be positive"),
        (0.0, 0.5, 0.005, -28.0, "sigma must be positive"),
        (0.0, 0.5, 0.005, float("nan"), "sigma must be positive"),
    ]:
        with pytest.raises(ValidationError, match=message):
            run_illposedness_demo(
                alpha=1.5, s=s, epsilon=epsilon, delta=delta,
                t_internal=1.0, n_carrier=16.0, sigma=sigma,
            )


def test_illposedness_demo_short_window_calibration(monkeypatch):
    # a short window exercises the full pipeline; data norms and separation
    # are exact by the linear calibration, amplification stays near 1
    monkeypatch.setattr(experiments, "ILLPOSED_DT_LADDER", (0.2,))
    monkeypatch.setattr(experiments, "ILLPOSED_RECORD_INTERVAL", 4.0)
    rep = run_illposedness_demo(
        alpha=1.5, s=0.0, epsilon=0.4, delta=0.004,
        t_internal=8.0, n_carrier=16.0,
    )
    assert rep["record_every"] == 20
    assert rep["data_norm_1"] == pytest.approx(0.4, rel=1e-9)
    assert rep["data_norm_2"] == pytest.approx(0.404, rel=1e-9)
    assert rep["data_separation"] == pytest.approx(0.004, rel=1e-6)
    assert rep["t_physical"] == pytest.approx(8.0 / 2.0**1.5)
    assert rep["amplification"] >= 1.0
    assert rep["approx_error_sup_1"] < 1e-4


def test_separation_takes_the_pair_difference_record_by_record(monkeypatch):
    # a whole difference of the rescaled pair would hold a third
    # (records, 2 nx) array beside the pair (tracemalloc with numpy 2.4:
    # 8.0 MiB against 5.9 MiB record by record, and the pair is 4 MiB)
    monkeypatch.setattr(experiments, "ILLPOSED_RECORD_INTERVAL", 4.0)
    tracemalloc.start()
    try:
        rep = run_illposedness_demo(1.5, 0.0, 0.5, 0.005, 60.0, 16.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    records = round(60.0 / (rep["dt"] * rep["record_every"])) + 1
    pair_bytes = 2 * records * (2 * experiments.ILLPOSED_NX) * 16
    assert records == 16
    assert peak <= 1.6 * pair_bytes


class _Batch(Exception):
    """Stops a pipeline at its evolve_together call, carrying the runs."""


# gate 7, gate 8, and illposed's CLI defaults at four alphas
BAND_DATA_PIPELINES = [
    pytest.param(experiments.run_approximation_error, (1.5, [8, 16, 32, 64]),
                 experiments.APPROX_NX, id="gate7"),
    pytest.param(run_illposedness_demo, (1.5, 0.0, 0.5, 0.005, 600.0, 16.0),
                 experiments.ILLPOSED_NX, id="gate8"),
] + [
    pytest.param(run_illposedness_demo, (alpha, 0.0, 0.5, 0.005, 1200.0, 16.0, 28.0),
                 experiments.ILLPOSED_NX, id=f"illposed-alpha{alpha}")
    for alpha in (1.2, 1.5, 1.7, 1.9)
]


@pytest.mark.parametrize("pipeline, args, nx", BAND_DATA_PIPELINES)
def test_band_data_remodulates_to_the_lifted_envelope(monkeypatch, pipeline, args, nx):
    # the fractional run's data on the carrier's band is beta times the
    # envelope's coefficients: on the full grid it is the modulated image
    # of the envelope at t = 0, bit for bit
    def stop(runs):
        raise _Batch(runs)

    monkeypatch.setattr(experiments, "evolve_together", stop)
    with pytest.raises(_Batch) as batch:
        pipeline(*args)
    runs = batch.value.args[0]
    envelopes = [phi for phi, cfg in runs if cfg.carrier == 0.0]
    bands = [(w, cfg) for w, cfg in runs if cfg.carrier != 0.0]
    assert len(envelopes) == len(bands) >= 2
    for phi, (w, cfg) in zip(envelopes, bands):
        full = make_grid(nx, w.grid.length)
        lifted = approximate_solution(
            Trajectory([0.0], phi.grid, phi.values[None]), cfg.carrier, cfg.alpha, full,
            cfg.frame_velocity,
        )
        got = remodulate(Trajectory([0.0], w.grid, w.values[None]), cfg.carrier, full)
        assert np.array_equal(got.values, lifted.values)


def test_illposedness_zero_delta_gives_identical_pair(monkeypatch):
    def stop(runs):
        raise _Batch(runs)

    monkeypatch.setattr(experiments, "evolve_together", stop)
    with pytest.raises(_Batch) as batch:
        run_illposedness_demo(1.5, 0.0, 0.3, 0.0, 600.0, 16.0)
    (p1, _), (p2, _), (w1, _), (w2, _) = batch.value.args[0]
    assert np.array_equal(p1.values, p2.values)
    assert np.array_equal(w1.values, w2.values)
