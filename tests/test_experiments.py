import numpy as np
import pytest

from fnls.errors import ValidationError
from fnls.spectral import Field, make_grid, physical_values
from fnls.evolution import SimConfig
from fnls.experiments import (
    fit_power_law,
    initial_field,
    parallel_map,
    run_conservation_suite,
    run_illposedness_demo,
    scan_remainder,
    scan_trilinear,
    scan_wavepacket,
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


def test_fit_power_law_validation():
    with pytest.raises(ValidationError):
        fit_power_law("N", [1.0, 2.0, 4.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        fit_power_law("N", [1.0, 2.0, 4.0, 8.0], [1.0, -2.0, 3.0, 4.0])


def test_parallel_map_orders_results(monkeypatch):
    monkeypatch.setenv("FNLS_THREADS", "2")
    assert parallel_map(lambda v: v * v, [3, 1, 2]) == [9, 1, 4]
    monkeypatch.setenv("FNLS_THREADS", "1")
    assert parallel_map(lambda v: -v, [3, 1]) == [-3, -1]


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


def test_scan_wavepacket_small():
    scans = scan_wavepacket([0.25], [16, 32, 64, 128])
    assert scans[0.25].fitted_slope == pytest.approx(0.25, abs=0.05)


def test_scan_wavepacket_shares_packets_across_s():
    m_list = [16, 32, 64, 128]
    both = scan_wavepacket([-0.25, 0.5], m_list, amplitude=1.7)
    assert list(both) == [-0.25, 0.5]
    for s in both:
        assert both[s] == scan_wavepacket([s], m_list, amplitude=1.7)[s]


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
    states = [
        Field.physical(grid, 0.5 * np.exp(1j * (k * grid.x + abs(k) ** alpha * t)))
        for t in times
    ]
    traj = Trajectory(times, states)
    good = np.max(pde_residual(traj, alpha, 0.0))
    bad = np.max(pde_residual(traj, 1.2, 0.0))
    assert good < 1e-6
    assert bad > 1e-2


def test_nls_pair_separation_grows_tenfold():
    # the proportional pair decoheres under the alpha = 2 flow: relative
    # separation grows well past 10x the initial gap within the window
    from fnls.constructions import nls_pair
    from fnls.evolution import evolve_together
    from fnls.norms import sobolev_norm

    grid = make_grid(512, 1200.0)
    eps, delta, sigma = 0.64, 0.0064, 16.0
    p1, p2 = nls_pair(eps, delta, grid, sigma=sigma)
    cfg = SimConfig(alpha=2.0, gamma=1.0, dt=0.1, t_final=360.0, grid=grid, record_every=360)
    t1, t2 = evolve_together([(p1, cfg), (p2, cfg)])
    seps = [
        sobolev_norm(a - b, 0.0)
        for a, b in zip(t1.states, t2.states)
    ]
    assert seps[0] == pytest.approx(delta, rel=0.01)
    assert max(seps) >= 10.0 * seps[0]


def test_illposedness_demo_range_check():
    with pytest.raises(ValidationError):
        run_illposedness_demo(
            alpha=1.5, s=0.2, epsilon=0.5, delta=0.005,
            t_internal=1.0, n_carrier=16.0,
        )
    with pytest.raises(ValidationError):
        run_illposedness_demo(
            alpha=1.5, s=-0.3, epsilon=0.5, delta=0.005,
            t_internal=1.0, n_carrier=16.0,
        )


def test_illposedness_demo_short_window_calibration():
    # a short window exercises the full pipeline; data norms and separation
    # are exact by the linear calibration, amplification stays near 1
    rep = run_illposedness_demo(
        alpha=1.5, s=0.0, epsilon=0.4, delta=0.004,
        t_internal=8.0, n_carrier=16.0, record_every=20,
    )
    assert rep["data_norm_1"] == pytest.approx(0.4, rel=1e-9)
    assert rep["data_norm_2"] == pytest.approx(0.404, rel=1e-9)
    assert rep["data_separation"] == pytest.approx(0.004, rel=1e-6)
    assert rep["t_physical"] == pytest.approx(8.0 / 2.0**1.5)
    assert rep["amplification"] >= 1.0
    assert rep["approx_error_sup_1"] < 1e-4
