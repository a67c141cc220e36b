from dataclasses import replace

import numpy as np
import pytest

from fnls.errors import BlowUpError, NonContractionError, ValidationError, WrapAroundError
from fnls.spectral import Field, make_grid, physical_values, spectral_values
from fnls.norms import energy, mass, sobolev_norm
from fnls.evolution import SimConfig, evolve, picard_iterate
from fnls.experiments import initial_field


@pytest.fixture
def circle():
    return make_grid(256, 2 * np.pi)


def _gaussian(grid, a=1.0, sigma=0.5, k=0.0):
    x0 = 0.5 * grid.length
    vals = a * np.exp(-0.5 * ((grid.x - x0) / sigma) ** 2 + 1j * k * grid.x)
    return Field.physical(grid, vals)


def test_config_validation(circle):
    with pytest.raises(ValidationError):
        SimConfig(alpha=2.5, gamma=1.0, dt=1e-3, t_final=1.0, grid=circle)
    with pytest.raises(ValidationError):
        SimConfig(alpha=1.5, gamma=1.0, dt=0.0, t_final=1.0, grid=circle)
    with pytest.raises(ValidationError):
        SimConfig(alpha=1.5, gamma=1.0, dt=1e-3, t_final=-1.0, grid=circle)
    with pytest.raises(ValidationError):
        # accuracy guard: dt*max|k|^alpha far beyond 2*pi*cfl_factor
        SimConfig(alpha=2.0, gamma=1.0, dt=1.0, t_final=1.0, grid=circle)


def _final(phi, alpha, gamma, dt, t_final, **kw):
    """Last state of an evolve run that records only the end."""
    cfg = SimConfig(
        alpha=alpha, gamma=gamma, dt=dt, t_final=t_final, grid=phi.grid,
        record_every=10**9, **kw,
    )
    return evolve(phi, cfg).states[-1]


def _random_field(grid, seed):
    rng = np.random.default_rng(seed)
    return Field.physical(grid, rng.standard_normal(grid.nx) + 1j * rng.standard_normal(grid.nx))


def test_linear_propagate_identity_and_phase(circle):
    # gamma = 0: evolve is the exact free flow exp(i|k|^alpha t) mode by mode
    f = _gaussian(circle)
    cfg = SimConfig(alpha=1.5, gamma=0.0, dt=0.01, t_final=0.7, grid=circle)
    assert np.array_equal(evolve(f, cfg).states[0].values, f.values)  # t = 0

    mode = Field.physical(circle, np.exp(1j * 3 * circle.x))
    out = physical_values(_final(mode, 1.5, 0.0, 0.01, 0.7))
    expect = np.exp(1j * (3 * circle.x + 3.0**1.5 * 0.7))
    assert np.max(np.abs(out - expect)) < 1e-13


def test_linear_propagate_group_law(circle):
    f = _random_field(circle, 0)
    one = _final(_final(f, 1.5, 0.0, 0.01, 0.3), 1.5, 0.0, 0.01, 0.4)
    two = _final(f, 1.5, 0.0, 0.01, 0.7)
    assert np.max(np.abs(one.values - two.values)) <= 1e-12 * np.max(np.abs(f.values))


def test_linear_propagate_preserves_every_sobolev_norm(circle):
    f = _random_field(circle, 1)
    out = _final(f, 1.3, 0.0, 0.01, 2.1, cfl_factor=10.0)
    for s in (-1.0, 0.0, 0.5, 2.0):
        assert sobolev_norm(out, s) == pytest.approx(sobolev_norm(f, s), rel=1e-12)


def test_strang_step_linear_limit(circle):
    f = _gaussian(circle)
    out = physical_values(_final(f, 1.5, 0.0, 1e-2, 1e-2))
    free = Field.spectral(circle, np.exp(1j * np.abs(circle.k) ** 1.5 * 1e-2) * f.values)
    assert np.max(np.abs(out - physical_values(free))) < 1e-14


def test_strang_step_plane_wave_exact(circle):
    # the split step is exact on plane waves: both substeps are diagonal
    a, k, gamma, dt, alpha = 0.3, 2.0, -1.0, 1e-2, 1.7
    f = Field.physical(circle, a * np.exp(1j * k * circle.x))
    out = physical_values(_final(f, alpha, gamma, dt, dt, cfl_factor=10.0))
    expect = a * np.exp(1j * (k * circle.x + (abs(k) ** alpha - gamma * a**2) * dt))
    assert np.max(np.abs(out - expect)) < 1e-13


def test_strang_step_preserves_mass(circle):
    f = _random_field(circle, 2)
    assert mass(_final(f, 1.5, 1.0, 1e-2, 1e-2)) == pytest.approx(mass(f), rel=1e-12)


def test_evolve_plane_wave_oracle(circle):
    a, k, gamma, t_final = 0.1, 2.0, 1.0, 0.2
    for alpha in (1.2, 1.5, 1.8, 2.0):
        cfg = SimConfig(
            alpha=alpha, gamma=gamma, dt=1e-3, t_final=t_final,
            grid=circle, record_every=200,
        )
        traj = evolve(initial_field(circle, f"plane:a={a},k={k}"), cfg)
        exact = a * np.exp(
            1j * (k * circle.x + (abs(k) ** alpha - gamma * a**2) * t_final)
        )
        got = physical_values(traj.states[-1])
        assert np.linalg.norm(got - exact) / np.linalg.norm(exact) < 1e-6


def test_evolve_free_gaussian_closed_form():
    grid = make_grid(1024, 40.0)
    s0 = 1.0
    x = grid.x - 20.0
    phi = Field.physical(grid, np.exp(-(x**2) / (2 * s0**2)).astype(complex))
    cfg = SimConfig(alpha=2.0, gamma=0.0, dt=1e-3, t_final=1.0, grid=grid, record_every=1000)
    traj = evolve(phi, cfg)
    t = 1.0
    exact = s0 / np.sqrt(s0**2 - 2j * t) * np.exp(-(x**2) / (2 * (s0**2 - 2j * t)))
    got = physical_values(traj.states[-1])
    assert np.linalg.norm(got - exact) / np.linalg.norm(exact) < 1e-6


def test_evolve_second_order_self_convergence(circle):
    phi = _gaussian(circle, a=0.5, sigma=0.7)
    finals = []
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = SimConfig(alpha=1.5, gamma=1.0, dt=dt, t_final=0.5, grid=circle, record_every=10**9)
        finals.append(spectral_values(evolve(phi, cfg).states[-1]))
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    assert 3.0 <= e1 / e2 <= 5.0


def test_evolve_conserves_mass_and_energy(circle):
    phi = _gaussian(circle)
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=1e-3, t_final=1.0, grid=circle, record_every=100)
    traj = evolve(phi, cfg)
    masses = np.array([mass(s) for s in traj.states])
    assert np.max(np.abs(masses - masses[0])) / masses[0] <= 1e-10

    energies = np.array([energy(s, 1.5, 1.0) for s in traj.states])
    drift = np.max(np.abs(energies - energies[0])) / abs(energies[0])
    cfg2 = SimConfig(alpha=1.5, gamma=1.0, dt=5e-4, t_final=1.0, grid=circle, record_every=200)
    energies2 = np.array([energy(s, 1.5, 1.0) for s in evolve(phi, cfg2).states])
    drift2 = np.max(np.abs(energies2 - energies2[0])) / abs(energies2[0])
    assert 3.0 <= drift / drift2 <= 5.0


def test_evolve_time_reversal(circle):
    phi = _gaussian(circle, a=0.8)
    cfg = SimConfig(alpha=1.4, gamma=1.0, dt=1e-3, t_final=0.5, grid=circle, record_every=500)
    fwd = evolve(phi, cfg)
    back = evolve(fwd.states[-1], replace(cfg, dt=-cfg.dt, t_final=-cfg.t_final))
    got = back.states[-1].values
    assert np.linalg.norm(got - phi.values) / np.linalg.norm(phi.values) <= 1e-8
    assert back.times[-1] == pytest.approx(-0.5)


def test_evolve_matches_reference_nls_at_alpha_two(circle):
    # independent reference: textbook split-step written inline for
    # i u_t - u_xx = gamma |u|^2 u (the alpha = 2 specialization)
    gamma, dt, n_steps = 1.0, 1e-3, 200
    phi = _gaussian(circle, a=0.6)
    u = physical_values(phi)
    phase = np.exp(0.5j * dt * circle.k**2)
    for _ in range(n_steps):
        u = np.fft.ifft(np.fft.fft(u) * phase)
        u = u * np.exp(-1j * gamma * dt * np.abs(u) ** 2)
        u = np.fft.ifft(np.fft.fft(u) * phase)
    cfg = SimConfig(alpha=2.0, gamma=gamma, dt=dt, t_final=n_steps * dt, grid=circle, record_every=n_steps)
    got = physical_values(evolve(phi, cfg).states[-1])
    # the only difference is the dealiased phase density; data is resolved
    assert np.linalg.norm(got - u) / np.linalg.norm(u) < 1e-10


def test_evolve_blow_up_guard(circle):
    phi = _gaussian(circle, a=1.0)
    cfg = SimConfig(
        alpha=1.5, gamma=1.0, dt=1e-3, t_final=1.0, grid=circle,
        blowup_threshold=0.5,  # force the guard
    )
    with pytest.raises(BlowUpError) as info:
        evolve(phi, cfg)
    assert info.value.t_reached > 0


def test_evolve_tail_check(circle):
    # packet shoved against the boundary trips the wrap-around guard
    vals = np.exp(-0.5 * (circle.x / 0.3) ** 2)
    cfg = SimConfig(alpha=1.5, gamma=0.0, dt=1e-3, t_final=0.01, grid=circle, check_tail=True)
    with pytest.raises(WrapAroundError):
        evolve(Field.physical(circle, vals), cfg)


def test_evolve_partial_final_step(circle):
    phi = _gaussian(circle, a=0.3)
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=1e-3, t_final=0.0505, grid=circle, record_every=10**9)
    traj = evolve(phi, cfg)
    assert traj.times[-1] == pytest.approx(0.0505, rel=1e-12)
    cfg_exact = SimConfig(alpha=1.5, gamma=1.0, dt=5.05e-4, t_final=0.0505, grid=circle, record_every=10**9)
    ref = evolve(phi, cfg_exact)
    diff = np.linalg.norm(
        spectral_values(traj.states[-1]) - spectral_values(ref.states[-1])
    )
    assert diff < 1e-6


def test_picard_free_limit(circle):
    phi = _gaussian(circle, a=0.4)
    cfg = SimConfig(alpha=1.5, gamma=0.0, dt=1e-3, t_final=0.05, grid=circle)
    res = picard_iterate(phi, cfg, iterations=1)
    expect = np.exp(1j * np.abs(circle.k) ** 1.5 * 0.05) * spectral_values(phi)
    assert np.max(np.abs(spectral_values(res.final) - expect)) < 1e-12


def test_picard_contracts_and_matches_evolve(circle):
    phi = _gaussian(circle, a=0.2, sigma=0.6)
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=1e-3, t_final=0.1, grid=circle)
    res = picard_iterate(phi, cfg, iterations=6)
    d = res.difference_norms
    assert np.all(d[1:5] < d[:4])  # geometric-looking decay
    ref = evolve(phi, cfg)
    diff = spectral_values(res.final) - spectral_values(ref.states[-1])
    assert np.linalg.norm(diff) / np.sqrt(circle.length) <= 1e-6


def test_picard_divergence_guard(circle):
    # large data over a long window: the Duhamel map does not contract
    phi = _gaussian(circle, a=6.0, sigma=0.8)
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=2e-2, t_final=2.0, grid=circle, cfl_factor=8.0)
    with pytest.raises(NonContractionError):
        picard_iterate(phi, cfg, iterations=12)


def test_trajectory_metadata(circle):
    phi = _gaussian(circle)
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=1e-3, t_final=0.02, grid=circle, record_every=5)
    traj = evolve(phi, cfg)
    assert traj.times[0] == 0.0
    assert np.allclose(np.diff(traj.times), 5e-3, rtol=1e-12)
    assert traj.states[0].grid.nx == 256
