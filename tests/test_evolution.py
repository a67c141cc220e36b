from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fnls.evolution as evolution
import fnls.spectral as spectral
from fnls.errors import BlowUpError, NonContractionError, ValidationError, WrapAroundError
from fnls.spectral import Field, cubic_values, make_grid, physical_values, spectral_values
from fnls.norms import energy, mass, sobolev_norm
from fnls.evolution import SimConfig, Trajectory, evolve, evolve_records, picard_iterate
from fnls.experiments import _evolve_pairs, initial_field

from oracles import TracedPeak, history


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
        # accuracy guard: dt*max|k|^alpha far beyond 2*pi*CFL_FACTOR
        SimConfig(alpha=2.0, gamma=1.0, dt=1.0, t_final=1.0, grid=circle)


def test_accuracy_guard_counts_frame_and_carrier_terms(circle):
    # dt*max|k|^1.5 = 0.015 * 128^1.5 = 21.7 passes 2*pi*4 = 25.1, but the
    # fastest phase |k|^1.5 + v*k reaches 0.015 * (127^1.5 + 20*127) = 59.6
    ok = dict(alpha=1.5, gamma=1.0, dt=0.015, t_final=1.0, grid=circle)
    SimConfig(**ok)
    with pytest.raises(ValidationError):
        SimConfig(**ok, frame_velocity=20.0)
    # a carrier N = 40 puts the top of the band at |127 + 40|^1.5: 32.4
    with pytest.raises(ValidationError):
        SimConfig(**dict(ok, grid=make_grid(256, 2 * np.pi, carrier=40.0)))


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


def test_linear_propagate_preserves_every_sobolev_norm(circle, monkeypatch):
    monkeypatch.setattr(evolution, "CFL_FACTOR", 10.0)
    f = _random_field(circle, 1)
    out = _final(f, 1.3, 0.0, 0.01, 2.1)
    for s in (-1.0, 0.0, 0.5, 2.0):
        assert sobolev_norm(out, s) == pytest.approx(sobolev_norm(f, s), rel=1e-12)


def test_strang_step_linear_limit(circle):
    f = _gaussian(circle)
    out = physical_values(_final(f, 1.5, 0.0, 1e-2, 1e-2))
    free = Field(circle, np.exp(1j * np.abs(circle.k) ** 1.5 * 1e-2) * f.values)
    assert np.max(np.abs(out - physical_values(free))) < 1e-14


def test_strang_step_plane_wave_exact(circle, monkeypatch):
    # the split step is exact on plane waves: both substeps are diagonal
    a, k, gamma, dt, alpha = 0.3, 2.0, -1.0, 1e-2, 1.7
    f = Field.physical(circle, a * np.exp(1j * k * circle.x))
    monkeypatch.setattr(evolution, "CFL_FACTOR", 10.0)
    out = physical_values(_final(f, alpha, gamma, dt, dt))
    expect = a * np.exp(1j * (k * circle.x + (abs(k) ** alpha - gamma * a**2) * dt))
    assert np.max(np.abs(out - expect)) < 1e-13


def test_strang_step_preserves_mass(circle):
    f = _random_field(circle, 2)
    assert mass(_final(f, 1.5, 1.0, 1e-2, 1e-2)) == pytest.approx(mass(f), rel=1e-12)


def _two_fft_step(uhat, half_phase, gamma, dt, dx):
    """Reference Strang step on stacked rows: the classic split-step Fourier
    method, each transform scaling a separate pass, |u|^2 through a square
    root and the phase through a complex exp."""
    uhat = uhat * half_phase
    u = np.fft.ifft(uhat) / dx
    u = u * np.exp(-1j * gamma * dt * np.abs(u) ** 2)
    uhat = np.fft.fft(u) * dx
    return uhat * half_phase


def _resolved(rng, *shape):
    """Random coefficients on the modes |m| < nx/4, where the product |u|^2
    is alias-free on the nx samples; zero elsewhere."""
    uhat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    nx = shape[-1]
    uhat[..., np.abs(np.fft.fftfreq(nx, 1.0 / nx)) >= nx // 4] = 0.0
    return uhat


@pytest.mark.parametrize("nx", [16, 256])
def test_strang_step_matches_two_fft_reference(nx, monkeypatch):
    monkeypatch.setattr(evolution, "CFL_FACTOR", 100.0)
    grid = make_grid(nx, 2 * np.pi)
    rng = np.random.default_rng(nx)
    uhat = rng.standard_normal(nx) + 1j * rng.standard_normal(nx)
    uhat[nx // 2] = 0.7 - 0.4j  # the -nx/2 mode: the Nyquist edge of both paths
    phi = Field(grid, uhat)
    for alpha, gamma, dt in ((1.5, 1.0, 1e-3), (2.0, -0.5, 1e-4)):
        cfg = SimConfig(alpha=alpha, gamma=gamma, dt=dt, t_final=dt, grid=grid)
        got = spectral_values(evolve(phi, cfg).states[-1])
        want = _two_fft_step(uhat, np.exp(0.5j * dt * cfg.symbol()), gamma, dt, grid.dx)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def _five_fft_step(uhat, grid, symbol, gamma, dt):
    """Reference Strang step whose phase density is the band projection of
    |u|^2 (the padded product), with a separate coarse inverse transform
    and a full complex transform of the padded density."""
    nx, dx = grid.nx, grid.dx
    half = np.exp(0.5j * dt * symbol)
    uhat = uhat * half
    fine = np.zeros(2 * nx, dtype=complex)
    fine[: nx // 2] = uhat[: nx // 2]
    fine[-nx // 2 :] = uhat[-nx // 2 :]
    u_fine = np.fft.ifft(fine) / (dx / 2)
    dens_hat_fine = np.fft.fft(np.abs(u_fine) ** 2) * (dx / 2)
    dens_hat = np.zeros(nx, dtype=complex)
    dens_hat[: nx // 2] = dens_hat_fine[: nx // 2]
    dens_hat[-nx // 2 :] = dens_hat_fine[-nx // 2 :]
    density = np.real(np.fft.ifft(dens_hat) / dx)
    u = np.fft.ifft(uhat) / dx
    uhat = np.fft.fft(u * np.exp(-1j * gamma * dt * density)) * dx
    return uhat * half


@pytest.mark.parametrize("nx", [16, 256])
def test_strang_step_matches_five_fft_reference(nx, monkeypatch):
    # on data with |m| < nx/4 the sampled |u|^2 is its band projection, so
    # the padded step and the nx-sample step agree to round-off
    monkeypatch.setattr(evolution, "CFL_FACTOR", 100.0)
    grid = make_grid(nx, 2 * np.pi)
    uhat = _resolved(np.random.default_rng(nx), nx)
    phi = Field(grid, uhat)
    for alpha, gamma, dt in ((1.5, 1.0, 1e-3), (2.0, -0.5, 1e-4)):
        cfg = SimConfig(alpha=alpha, gamma=gamma, dt=dt, t_final=dt, grid=grid)
        got = spectral_values(evolve(phi, cfg).states[-1])
        want = _five_fft_step(uhat, grid, cfg.symbol(), gamma, dt)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def _four_fft_step(uhat, half_phase, gamma, dt, dx):
    """Reference Strang step on stacked rows with the padded product, each
    transform scaling a separate pass: zero-fill a padded copy, divide the
    inverse transform by the fine spacing, take |u|^2 through a square root
    and the phase through a complex exp."""
    nx = uhat.shape[-1]
    uhat = uhat * half_phase
    fine = np.zeros((uhat.shape[0], 2 * nx), dtype=complex)
    fine[:, : nx // 2] = uhat[:, : nx // 2]
    fine[:, -nx // 2 :] = uhat[:, -nx // 2 :]
    u_fine = np.fft.ifft(fine) / (dx / 2)
    dens_hat = np.fft.rfft(np.abs(u_fine) ** 2)[:, : nx // 2 + 1]
    density = np.fft.irfft(dens_hat, nx) / 2
    uhat = np.fft.fft(u_fine[:, ::2] * np.exp(-1j * gamma * dt * density)) * dx
    return uhat * half_phase


def _mixed_runs(uhats, gamma, dt, t_final):
    """(phi, cfg) runs of one uhat row each, of different length and alpha."""
    runs = []
    for uhat, (alpha, length) in zip(uhats, ((1.5, 2 * np.pi), (2.0, 5.0), (1.2, 2 * np.pi))):
        grid = make_grid(uhat.size, length)
        cfg = SimConfig(alpha=alpha, gamma=gamma, dt=dt, t_final=t_final, grid=grid,
                        record_every=10**9)
        runs.append((Field(grid, uhat), cfg))
    symbol = np.stack([cfg.symbol() for _, cfg in runs])
    dx = np.array([[cfg.grid.dx] for _, cfg in runs])
    return runs, symbol, dx


@pytest.mark.parametrize("gamma", [1.0, -0.7])
def test_evolve_together_matches_two_fft_reference(gamma, monkeypatch):
    monkeypatch.setattr(evolution, "CFL_FACTOR", 100.0)
    # three whole steps and a shorter final one on random rows of different
    # length and alpha, each with a nonzero -nx/2 mode
    nx, dt, t_final = 64, 1e-3, 3.4e-3
    rng = np.random.default_rng(7)
    want = rng.standard_normal((3, nx)) + 1j * rng.standard_normal((3, nx))
    want[:, nx // 2] = 0.7 - 0.4j
    runs, symbol, dx = _mixed_runs(want, gamma, dt, t_final)
    for h in (dt, dt, dt, t_final - 3 * dt):
        want = _two_fft_step(want, np.exp(0.5j * h * symbol), gamma, h, dx)
    *_, (_, final) = evolve_records(runs)
    for got, row in zip(final, want):
        assert np.linalg.norm(got - row) <= 1e-14 * np.linalg.norm(row)


@pytest.mark.parametrize("gamma", [1.0, -0.7])
def test_evolve_together_matches_four_fft_reference(gamma, monkeypatch):
    # one step on rows with |m| < nx/4, where the padded product is the
    # sampled one; the phase's harmonics leave the next state unresolved
    monkeypatch.setattr(evolution, "CFL_FACTOR", 100.0)
    nx, dt = 64, 1e-3
    want = _resolved(np.random.default_rng(7), 3, nx)
    runs, symbol, dx = _mixed_runs(want, gamma, dt, dt)
    want = _four_fft_step(want, np.exp(0.5j * dt * symbol), gamma, dt, dx)
    *_, (_, final) = evolve_records(runs)
    for got, row in zip(final, want):
        assert np.linalg.norm(got - row) <= 1e-14 * np.linalg.norm(row)


def _count_fft_calls(monkeypatch) -> list:
    """Names of the calls made to fnls.spectral's FFT pair, through which
    every complex transform goes, and to numpy.fft's transforms."""
    calls = []
    for module, name in ((spectral, "fft"), (spectral, "ifft"), (np.fft, "fft"),
                         (np.fft, "ifft"), (np.fft, "rfft"), (np.fft, "irfft")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_evolve_makes_two_ffts_a_step(monkeypatch):
    # ten whole steps and a shorter eleventh; without tail checks a record
    # costs no transform, so every FFT call is a step's
    calls = _count_fft_calls(monkeypatch)
    grid = make_grid(64, 2 * np.pi)
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=1e-3, t_final=0.0105, grid=grid, record_every=4)
    phi = Field(grid, np.exp(-np.arange(64.0)))
    traj = evolve(phi, cfg)
    assert len(traj.states) == 4
    assert calls == ["ifft", "fft"] * 11


def test_picard_makes_two_ffts_a_block(monkeypatch):
    # 37 time rows are three blocks of PICARD_BLOCK_ROWS = 16; each block's
    # cubic term is one inverse and one forward transform
    calls = _count_fft_calls(monkeypatch)
    grid = make_grid(64, 2 * np.pi)
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=1e-3, t_final=0.036, grid=grid)
    picard_iterate(Field(grid, np.exp(-np.arange(64.0))), cfg, iterations=4)
    assert evolution.PICARD_BLOCK_ROWS == 16
    assert calls == ["ifft", "fft"] * 3 * 4


def test_evolve_together_calls_share_no_state():
    # a batch stepped through evolve_records on data A between two on data B
    # leaves B's records unchanged to the bit, also when the calls differ in nx
    def records(nx, seed, t_final=0.0055):
        grid = make_grid(nx, 2 * np.pi)
        cfg = SimConfig(alpha=1.5, gamma=1.0, dt=1e-3, t_final=t_final, grid=grid)
        return [(t, coeffs.copy()) for t, coeffs in
                evolve_records([(_random_field(grid, seed + row), cfg) for row in range(2)])]

    fresh = records(64, 1)
    records(64, 10)
    records(16, 20, t_final=0.003)
    again = records(64, 1)
    assert len(fresh) == len(again) == 7
    for (t, a), (u, b) in zip(fresh, again):
        assert t == u and np.array_equal(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_guard_rejects_non_finite_spectrum(circle, bad):
    vals = spectral_values(_gaussian(circle)).copy()
    vals[3] = bad
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=1e-3, t_final=0.01, grid=circle)
    with pytest.raises(BlowUpError) as info:
        evolve(Field(circle, vals), cfg)
    assert str(info.value) == "run 0 of 1, alpha 1.5, carrier 0: non-finite spectrum"


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
    # the same scheme, so only round-off separates the two (1.3e-14 measured)
    assert np.linalg.norm(got - u) / np.linalg.norm(u) < 1e-13


def test_evolve_blow_up_guard(circle, monkeypatch):
    # the packet's conserved bound on |u| (6.0) passes half of a threshold
    # of 0.5, so the run is rejected before any step: no FFT runs
    monkeypatch.setattr(evolution, "BLOWUP_THRESHOLD", 0.5)
    phi = _gaussian(circle, a=1.0)
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=1e-3, t_final=1.0, grid=circle)
    calls = _count_fft_calls(monkeypatch)
    with pytest.raises(BlowUpError) as info:
        evolve(phi, cfg)
    assert str(info.value) == (
        "run 0 of 1, alpha 1.5, carrier 0: |u| <= sqrt(nx sum |uhat|^2) / L = 6.01, "
        "over BLOWUP_THRESHOLD / 2 = 0.25"
    )
    assert calls == []


def _spectral_bound(uhat):
    """sqrt(nx sum |uhat|^2) per row: sum |uhat| can never pass it while the
    sum of |uhat|^2 is conserved."""
    return np.sqrt(uhat.shape[-1] * np.sum(np.abs(uhat) ** 2, axis=-1))


@pytest.mark.parametrize("gamma", [1.0, -1.0])
def test_evolve_together_keeps_sum_abs_within_the_initial_bound(gamma):
    # 4,000 steps of a batch of rows with alpha 1.2, 1.5 and 2, carriers and
    # frame velocities: the bound taken at t = 0 holds at every record
    grid, wide = make_grid(64, 2 * np.pi), make_grid(64, 4 * np.pi)
    up, down = make_grid(64, 2 * np.pi, carrier=3.0), make_grid(64, 2 * np.pi, carrier=-2.0)
    common = dict(gamma=gamma, dt=1e-3, t_final=4.0, record_every=50)
    runs = [
        (_gaussian(grid, a=2.0, k=3.0), SimConfig(alpha=1.2, grid=grid, **common)),
        (_random_field(up, 7), SimConfig(alpha=1.5, grid=up, **common)),
        (_gaussian(wide, a=1.5), SimConfig(alpha=2.0, grid=wide, frame_velocity=-2.0, **common)),
        (_gaussian(down, sigma=0.3), SimConfig(alpha=1.5, grid=down, frame_velocity=1.5, **common)),
    ]
    bound = _spectral_bound(np.stack([phi.values for phi, _ in runs]))
    count = 0
    for _, coeffs in evolve_records(runs):
        assert np.all(np.sum(np.abs(coeffs), axis=-1) <= bound)
        count += 1
    assert count == 81


def test_row_just_inside_half_the_threshold_runs(circle, monkeypatch):
    # a threshold just over twice the larger conserved bound on |u| lets the
    # batch run, bit-identical to the default threshold; one just under it
    # rejects the row with that bound
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=1e-3, t_final=0.0105, grid=circle)
    runs = [(_gaussian(circle), cfg), (_random_field(circle, 3), replace(cfg, alpha=1.8))]
    bounds = [_spectral_bound(phi.values) / circle.length for phi, _ in runs]
    assert bounds[1] > bounds[0]
    default = history(runs)
    monkeypatch.setattr(evolution, "BLOWUP_THRESHOLD", 2.0 * bounds[1] * (1.0 + 1e-12))
    for a, b in zip(default, history(runs)):
        assert np.array_equal(a.values, b.values)
    monkeypatch.setattr(evolution, "BLOWUP_THRESHOLD", 2.0 * bounds[1] * (1.0 - 1e-12))
    with pytest.raises(BlowUpError) as info:
        next(evolve_records(runs))
    assert str(info.value).startswith("run 1 of 2, alpha 1.8, carrier 0: |u| <= sqrt(")


@pytest.mark.parametrize("a", [1.0, 60.0])
def test_overflowing_cubic_angle_is_rejected_before_stepping(circle, a):
    # at gamma = 1e308 the cubic angle bound |gamma dt| nx (bound / L)^2 of a
    # small and of a tall packet is inf, though |u| is far below the threshold
    cfg = SimConfig(alpha=1.5, gamma=1e308, dt=1e-3, t_final=0.01, grid=circle)
    with pytest.raises(BlowUpError) as info:
        evolve(_gaussian(circle, a=a), cfg)
    assert str(info.value) == "run 0 of 1, alpha 1.5, carrier 0: cubic angle bound inf may overflow"


def test_uncleared_row_still_raises_and_is_named(circle, monkeypatch):
    # the small row clears the bound and the large one does not: in either
    # order the error names the large one's row, and the small one runs alone
    monkeypatch.setattr(evolution, "BLOWUP_THRESHOLD", 0.5)
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=1e-3, t_final=0.05, grid=circle)
    small = (_gaussian(circle, a=0.01), cfg)
    big = (_gaussian(circle, a=1.0), replace(cfg, alpha=1.8))
    assert _spectral_bound(small[0].values) <= 0.25 * circle.length
    evolve(*small)
    for row, runs in ((1, [small, big]), (0, [big, small])):
        with pytest.raises(BlowUpError) as info:
            next(evolve_records(runs))
        assert str(info.value).startswith(f"run {row} of 2, alpha 1.8, carrier 0: |u| <= sqrt(")


def _band_partner(cfg):
    """A small centred packet on the band of carrier 3 over cfg's torus, as
    the band run of a pair in _evolve_pairs: it keeps off the torus' ends
    and far below any blow-up bound."""
    band = make_grid(cfg.grid.nx, cfg.grid.length, carrier=3.0)
    return _gaussian(band, a=0.1), replace(cfg, grid=band)


def test_evolve_tail_check(circle):
    # packet shoved against the boundary, a pair's NLS run, trips the
    # wrap-around check of the modulated pipelines
    vals = np.exp(-0.5 * (circle.x / 0.3) ** 2)
    cfg = SimConfig(alpha=1.5, gamma=0.0, dt=1e-3, t_final=0.01, grid=circle)
    with pytest.raises(WrapAroundError, match=(
        r"^run 0 of 2, alpha 1\.5, carrier 0: tail mass fraction 0\.\d+ in the outer 10% of "
        r"the domain at t=0 exceeds 1e-08$"
    )):
        runs = [(Field.physical(circle, vals), cfg), _band_partner(cfg)]
        _consume(_evolve_pairs(runs, 1.5, "lower t_final"))


@pytest.mark.parametrize("t_final", [0.16, 0.155])
def test_evolve_tail_check_covers_the_off_grid_last_record(t_final):
    # in a pair's window, the NLS run is a packet at group velocity 20 that
    # goes from the centre to the boundary by t_final, recorded only as the
    # last record, off the record grid (after a shrunken final step at
    # 0.155); that record used to go unchecked
    grid, band = make_grid(64, 2 * np.pi), make_grid(64, 2 * np.pi, carrier=3.0)
    vals = np.exp(-0.5 * ((grid.x - np.pi) / 0.3) ** 2 + 10j * grid.x)
    cfg = SimConfig(alpha=2.0, gamma=0.0, dt=1e-2, t_final=t_final, grid=grid, record_every=10**9)
    runs = [(Field.physical(grid, vals), cfg), (_gaussian(band, sigma=0.3), replace(cfg, grid=band))]
    with pytest.raises(WrapAroundError,
                       match=f"^run 0 of 2, alpha 2, carrier 0: .* at t={t_final:g} exceeds"):
        _consume(_evolve_pairs(runs, 1.5, "lower t_final"))


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


def test_picard_divergence_guard(circle, monkeypatch):
    # large data over a long window: the Duhamel map does not contract
    monkeypatch.setattr(evolution, "CFL_FACTOR", 8.0)
    phi = _gaussian(circle, a=6.0, sigma=0.8)
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=2e-2, t_final=2.0, grid=circle)
    with pytest.raises(NonContractionError):
        picard_iterate(phi, cfg, iterations=12)


def _per_row_picard(phi, cfg, iterations):
    """Reference Picard loop: two exp histories per iteration, the cubic
    term one time row at a time and the trapezoid by np.cumsum."""
    grid = cfg.grid
    omega = cfg.symbol()
    times = cfg.dt * np.arange(int(round(cfg.t_final / cfg.dt)) + 1)
    weight = (1.0 + grid.k**2) ** ((2.0 - cfg.alpha) / 4.0)
    free = np.exp(1j * omega * times[:, None]) * spectral_values(phi)[None, :]
    current = free.copy()
    diffs = []
    for _ in range(iterations):
        g = np.empty_like(current)
        for j in range(times.size):
            g[j] = np.exp(-1j * omega * times[j]) * cubic_values(current[j], grid)
        partial = np.zeros_like(current)
        np.cumsum(0.5 * cfg.dt * (g[:-1] + g[1:]), axis=0, out=partial[1:])
        nxt = free - 1j * cfg.gamma * np.exp(1j * omega * times[:, None]) * partial
        d2 = weight[None, :] * np.abs(nxt - current) ** 2
        diffs.append(float(np.sqrt(np.max(np.sum(d2, axis=1)) / grid.length)))
        current = nxt
    return current[-1], np.array(diffs)


@pytest.mark.parametrize("gamma", [0.0, 1.0])
@pytest.mark.parametrize("t_final", [0.1, 0.036])  # 101 and 37 time rows
@pytest.mark.parametrize("nx", [16, 256])
def test_picard_matches_per_row_reference(nx, t_final, gamma):
    grid = make_grid(nx, 2 * np.pi)
    rng = np.random.default_rng(nx)
    uhat = rng.standard_normal(nx) + 1j * rng.standard_normal(nx)
    phi = Field(grid, 2.0 * grid.length * uhat / np.sum(np.abs(uhat)))
    cfg = SimConfig(alpha=1.5, gamma=gamma, dt=1e-3, t_final=t_final, grid=grid)
    res = picard_iterate(phi, cfg, iterations=5)
    want_final, want_diffs = _per_row_picard(phi, cfg, iterations=5)
    assert np.array_equal(spectral_values(res.final), want_final)
    # differences at round-off level are compared to 1e-12 absolute only
    head = want_diffs >= 1e-12 * want_diffs[0]
    assert np.array_equal(res.difference_norms[head], want_diffs[head])
    assert np.allclose(res.difference_norms[~head], want_diffs[~head], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("block_rows", [1, 7, 16, 64])
@pytest.mark.parametrize("gamma", [0.0, 1.0])
@pytest.mark.parametrize("t_final", [0.1, 0.036])
@pytest.mark.parametrize("nx", [16, 256])
def test_picard_block_rows_match_per_row_reference(monkeypatch, nx, t_final, gamma, block_rows):
    # blocks of one row, whose carries are all there is; short last blocks
    # (101 and 37 rows in blocks of 7, 16 and 64); all 37 rows in one block
    monkeypatch.setattr(evolution, "PICARD_BLOCK_ROWS", block_rows)
    test_picard_matches_per_row_reference(nx, t_final, gamma)


def test_picard_non_finite_difference_is_non_contraction(circle, monkeypatch):
    # gamma = 1e308 overflows the first difference; nothing grows three
    # times, so the growth rule alone would return an infinite difference.
    # The 11 time rows are one block, and the two later iterations are
    # dropped: one cubic term where all three iterations would take three
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return cubic_values(*args, **kwargs)

    monkeypatch.setattr(evolution, "cubic_values", counted)
    phi = _gaussian(circle, a=0.2, sigma=0.6)
    cfg = SimConfig(alpha=1.5, gamma=1e308, dt=1e-3, t_final=0.01, grid=circle)
    with pytest.raises(NonContractionError, match="Picard difference 1 is not finite: \\[inf\\]"):
        picard_iterate(phi, cfg, iterations=3)
    assert len(calls) == 1


def test_picard_divergence_reports_the_reference_differences(circle, monkeypatch):
    # the sweep runs all twelve iterations, yet reports the four differences
    # at which the per-row loop sees the third growth in a row
    monkeypatch.setattr(evolution, "CFL_FACTOR", 8.0)
    phi = _gaussian(circle, a=6.0, sigma=0.8)
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=2e-2, t_final=2.0, grid=circle)
    with np.errstate(all="ignore"):
        want = [float(d) for d in _per_row_picard(phi, cfg, iterations=12)[1]]
    grew = [i for i in range(3, 12) if want[i - 3] < want[i - 2] < want[i - 1] < want[i]]
    message = f"successive Picard differences grew three times in a row: {want[grew[0] - 3:grew[0] + 1]}"
    with pytest.raises(NonContractionError) as err:
        picard_iterate(phi, cfg, iterations=12)
    assert str(err.value) == message


def test_picard_traced_peak_stays_within_six_histories(circle):
    # the sweep keeps blocks and per-iteration rows, no history at all
    phi = _gaussian(circle, a=0.2, sigma=0.6)
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=1e-3, t_final=0.1, grid=circle)
    history = 101 * circle.nx * 16
    with TracedPeak() as traced:
        picard_iterate(phi, cfg, iterations=4)
    assert traced.peak <= 6 * history


@pytest.mark.parametrize("t_final", [0.04, 0.035])  # four whole steps; three and a shorter one
@pytest.mark.parametrize("nx", [2**16, 2**18])
def test_evolve_peak_stays_within_eleven_fields(nx, t_final):
    # three records of one run: the history, the coefficients and symbol, the
    # half-phases and the step's kept buffers peak at 9.0 fields over the
    # initial data; the last, shorter step's buffers are made after the
    # others go
    grid = make_grid(nx, nx / 8.0)
    phi = _gaussian(grid, sigma=4.0)
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=0.01, t_final=t_final, grid=grid, record_every=2)
    with TracedPeak() as traced:
        traj = evolve(phi, cfg)
    assert traj.times.size == 3
    assert traced.peak <= 11.0 * 16 * nx


def _admitted_peak(monkeypatch, call):
    """The bytes that call's admission predicted and its tracemalloc peak."""
    predicted = []

    def admit(what, remedy, nbytes, work):
        predicted.append(nbytes)
        spectral.admit(what, remedy, nbytes, work)

    monkeypatch.setattr(evolution, "admit", admit)
    with TracedPeak() as traced:
        call()
    [nbytes] = predicted
    return nbytes, traced.peak


def _consume(records) -> None:
    for _ in records:
        pass


@pytest.mark.parametrize("rows, nx, t_final, pairs", [
    (1, 2**16, 0.02, False),  # evolve's 3 records, no wrap-around check: 9.0 fields measured
    (4, 2**14, 0.39, True),  # 40 records of two modulated pairs (_evolve_pairs): 8.8 measured
    # at nx 4,096 the pairs' weights and record temporaries pass the stepping's 9 fields
    (4, 2**12, 0.39, True),
    (8, 2**12, 0.39, True),
])
def test_strang_prediction_bounds_its_peak(monkeypatch, rows, nx, t_final, pairs):
    grid = make_grid(nx, nx / 8.0)
    band = make_grid(nx, nx / 8.0, carrier=1000 * grid.dk)
    grids = [grid] * (rows // 2) + [band] * (rows // 2) if pairs else [grid] * rows
    runs = [
        (_gaussian(g, sigma=4.0), SimConfig(alpha=1.2 + 0.2 * (row % 4), gamma=1.0, dt=0.01,
                                            t_final=t_final, grid=g))
        for row, g in enumerate(grids)
    ]
    pair_call = lambda: _consume(_evolve_pairs(runs, 1.5, "lower t_final"))
    call = pair_call if pairs else (lambda: evolve(*runs[0]))
    predicted, peak = _admitted_peak(monkeypatch, call)
    assert peak <= predicted <= 1.5 * peak


@pytest.mark.parametrize("nx, dt, t_final, iterations", [
    (256, 1e-3, 0.1, 200),  # the carried rows dominate
    (2048, 1e-4, 0.01, 2),  # the block buffers dominate
])
def test_picard_prediction_bounds_its_peak(monkeypatch, nx, dt, t_final, iterations):
    grid = make_grid(nx, 2 * np.pi)
    phi = _gaussian(grid, a=0.2, sigma=0.6)
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=dt, t_final=t_final, grid=grid)
    predicted, peak = _admitted_peak(monkeypatch, lambda: picard_iterate(phi, cfg, iterations))
    assert peak <= predicted <= 1.5 * peak


def test_picard_is_admitted_at_exactly_the_budget(monkeypatch):
    # 21 time rows make 2 blocks of 16; each iteration of a block passes
    # 16 x 64 values plus the pass overhead of 512, and the bytes are 11
    # block buffers of 16 x 64 values, 2 rows carried and 4 values a
    # difference per iteration, and the 21 times
    grid = make_grid(64, 2 * np.pi)
    phi = _gaussian(grid, a=0.2, sigma=0.6)
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=1e-3, t_final=0.02, grid=grid)
    work = 2 * 3 * (16 * 64 + 512)
    nbytes = 16 * (11 * 16 * 64 + 3 * (2 * 64 + 4)) + 8 * 21
    for name, exact in (("WORK_BUDGET", work), ("MEMORY_BUDGET", nbytes)):
        monkeypatch.setattr(spectral, name, exact)
        assert picard_iterate(phi, cfg, 3).difference_norms.size == 3
        monkeypatch.setattr(spectral, name, exact - 1)
        with pytest.raises(ValidationError, match="^21 Picard rows x 3 iterations x 64 values: "):
            picard_iterate(phi, cfg, 3)
        monkeypatch.undo()


def _picard_peak(t_final):
    grid = make_grid(1024, 2 * np.pi)
    phi = _gaussian(grid, a=0.2, sigma=0.6)
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=1e-3, t_final=t_final, grid=grid)
    with TracedPeak() as traced:
        picard_iterate(phi, cfg, iterations=2)
    return traced.peak


def test_picard_peak_does_not_grow_with_the_time_window():
    # the sweep keeps blocks and per-iteration rows, no (n_t + 1) x nx
    # history: 501 x 1024 peaks under 0.6 of one history, and a window four
    # times as long peaks within 10% of that
    peak = _picard_peak(0.5)
    assert peak < 0.6 * 501 * 1024 * 16
    assert _picard_peak(2.0) <= 1.1 * peak


def test_trajectory_metadata(circle):
    phi = _gaussian(circle)
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=1e-3, t_final=0.02, grid=circle, record_every=5)
    traj = evolve(phi, cfg)
    assert traj.times[0] == 0.0
    assert np.allclose(np.diff(traj.times), 5e-3, rtol=1e-12)
    assert traj.states[0].grid.nx == 256


def test_trajectory_holds_one_read_only_array():
    grid = make_grid(16, 2.0)
    values = np.arange(48, dtype=complex).reshape(3, 16)
    traj = Trajectory([0.0, 0.1, 0.2], grid, values)
    with pytest.raises(ValueError):
        traj.values[0, 0] = 1.0
    assert np.array_equal(traj.values, values)
    assert len(traj.states) == 3
    for j, state in enumerate(traj.states):
        assert state.grid is grid
        assert np.array_equal(state.values, traj.values[j])
    with pytest.raises(ValidationError, match="does not match"):
        Trajectory([0.0, 0.1], grid, values)  # one time short
    with pytest.raises(ValidationError, match="does not match"):
        Trajectory([0.0, 0.1, 0.2], make_grid(32, 2.0), values)


def _stack_runs(t_final, record_every):
    """Runs that share nx, dt, t_final, record_every and gamma but differ in
    alpha, grid length, frame velocity and carrier."""
    g1, g2 = make_grid(64, 2 * np.pi), make_grid(64, 4 * np.pi)
    c1, c2 = make_grid(64, 2 * np.pi, carrier=3.0), make_grid(64, 4 * np.pi, carrier=-1.5)
    common = dict(gamma=1.0, dt=1e-3, t_final=t_final, record_every=record_every)
    return [
        (_gaussian(g1), SimConfig(alpha=1.5, grid=g1, **common)),
        (_gaussian(g2, a=0.7), SimConfig(alpha=2.0, grid=g2, **common)),
        (_gaussian(g1, k=2.0), SimConfig(alpha=1.3, grid=g1, frame_velocity=-2.0, **common)),
        (_random_field(c1, 5), SimConfig(alpha=1.7, grid=c1, **common)),
        (_gaussian(c2, sigma=0.8), SimConfig(alpha=1.2, grid=c2, **common)),
    ]


@pytest.mark.parametrize("t_final", [0.0205, 0.02])  # shrunken final step, or none
def test_evolve_together_rows_equal_evolve(t_final):
    # each row of a batch stepped together through evolve_records is its
    # run's evolve, record by record
    runs = _stack_runs(t_final, record_every=3)  # 3 divides neither 20 nor 21 steps
    together = history(runs)
    assert len(together) == len(runs)
    for (phi, cfg), traj in zip(runs, together):
        alone = evolve(phi, cfg)
        assert np.array_equal(traj.times, alone.times)
        assert traj.times[-1] == pytest.approx(t_final, rel=1e-12)
        assert len(traj.states) == len(alone.states) == 8
        for got, want in zip(traj.states, alone.states):
            assert got.grid is cfg.grid
            assert np.array_equal(got.values, want.values)


@pytest.mark.parametrize("t_final", [0.0205, 0.02])  # shrunken final step, or none
def test_evolve_records_stream_the_history_rows_read_only(t_final):
    # each record is a read-only view of the one (runs, nx) state the loop
    # steps in place, whose rows are the runs' evolve histories
    runs = _stack_runs(t_final, record_every=3)
    alone = [evolve(phi, cfg) for phi, cfg in runs]
    records = list(evolve_records(runs))
    assert [t for t, _ in records] == alone[0].times.tolist()
    assert len({id(coeffs.base) for _, coeffs in records}) == 1
    assert not records[0][1].flags.writeable
    for index, (t, coeffs) in enumerate(evolve_records(runs)):
        assert np.array_equal(coeffs, [traj.values[index] for traj in alone])


def test_evolve_records_checks_before_the_first_record(monkeypatch):
    # admission and the blow-up check raise before any step: a step's work is
    # its 5 x 64 values plus the pass overhead of 512, and the bytes add
    # what a consumer keeps of each of the 21 records and holds besides
    runs = _stack_runs(0.02, record_every=1)
    monkeypatch.setattr(evolution, "_split_step", None)
    monkeypatch.setattr(spectral, "WORK_BUDGET", 20 * (5 * 64 + 512) - 1)
    with pytest.raises(ValidationError, match="^20 steps of 5 x 64 values and 21 records: "):
        next(evolve_records(runs))
    monkeypatch.setattr(spectral, "WORK_BUDGET", 20 * (5 * 64 + 512))
    exact = 16 * 5 * 9 * 64 + 21 * 100 + 7
    monkeypatch.setattr(spectral, "MEMORY_BUDGET", exact)
    evolve_records(runs, 100, 7)
    monkeypatch.setattr(spectral, "MEMORY_BUDGET", exact - 1)
    with pytest.raises(ValidationError, match="^20 steps of 5 x 64 values and 21 records: "):
        evolve_records(runs, 100, 7)
    phi, cfg = runs[1]
    runs[1] = (Field(cfg.grid, 1e12 * phi.values), cfg)
    with pytest.raises(BlowUpError, match="^run 1 of 5, alpha 2, carrier 0: "):
        next(evolve_records(runs))


@pytest.mark.parametrize(
    "change",
    [
        dict(dt=2e-3),
        dict(t_final=0.03),
        dict(record_every=2),
        dict(gamma=-1.0),
        dict(grid=make_grid(128, 2 * np.pi)),
    ],
)
def test_evolve_together_requires_shared_step_parameters(change):
    # runs stepped together through evolve_records, checked as it is called
    phi, cfg = _stack_runs(0.02, record_every=1)[0]
    other = replace(cfg, **change)
    with pytest.raises(ValidationError, match="runs must share"):
        evolve_records([(phi, cfg), (Field(other.grid, np.zeros(other.grid.nx)), other)])


def test_evolve_together_validations():
    with pytest.raises(ValidationError, match="needs at least one run"):
        evolve_records([])
    (phi, cfg), (psi, _) = _stack_runs(0.02, record_every=1)[:2]
    with pytest.raises(ValidationError, match="initial data grid"):
        evolve_records([(phi, cfg), (psi, cfg)])  # data on another grid


def _failure(call):
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            call()
        except (BlowUpError, WrapAroundError) as exc:
            return type(exc), str(exc)
    raise AssertionError("no failure raised")


def test_evolve_together_row_failure_matches_evolve(circle, monkeypatch):
    # the big row's conserved bound on |u| (6.0) passes half the threshold;
    # the good row's (0.6) and the edge row's (1.7) do not
    monkeypatch.setattr(evolution, "BLOWUP_THRESHOLD", 8.0)
    good = (_gaussian(circle, a=0.1), SimConfig(alpha=1.5, gamma=1.0, dt=1e-3, t_final=0.05, grid=circle))
    big = (_gaussian(circle, a=1.0), replace(good[1], alpha=1.8))
    # a packet against the boundary trips the wrap-around check at t = 0,
    # where the modulated pipelines (_evolve_pairs) check each record; its
    # pair's band run, and good's, keep off the ends
    edge = (Field.physical(circle, 0.5 * np.exp(-0.5 * (circle.x / 0.3) ** 2)), good[1])
    nan = spectral_values(_gaussian(circle)).copy()
    nan[3] = np.nan
    bad = (Field(circle, nan), good[1])

    def stepped(runs):
        _consume(evolve_records(runs))

    def paired(runs):
        _consume(_evolve_pairs(runs + [_band_partner(cfg) for _, cfg in runs], 1.5, "lower t_final"))

    for failing, consume in ((big, stepped), (edge, paired), (bad, stepped)):
        kind, message = _failure(lambda: consume([failing]))
        if consume is stepped:
            assert _failure(lambda: evolve(*failing)) == (kind, message)
        n = 2 if consume is paired else 1
        assert f"run 0 of {n}, alpha {failing[1].alpha:g}, carrier 0: " in message
        # the same failure, naming the run's row in the batch
        for row, runs in ((1, [good, failing]), (0, [failing, good])):
            want = (kind, message.replace(f"run 0 of {n}", f"run {row} of {2 * n}"))
            assert _failure(lambda: consume(runs)) == want


def test_evolve_together_failure_names_the_run():
    # a pair's band run, against the boundary, trips the wrap-around check,
    # and the error names its row, alpha and carrier (a four-row separation
    # batch used to leave the row unsaid)
    grid = make_grid(64, 2 * np.pi, carrier=3.0)
    cfg = SimConfig(alpha=1.7, gamma=1.0, dt=1e-3, t_final=0.01, grid=grid)
    envelope = make_grid(64, 2 * np.pi)
    centred = Field.physical(envelope, np.exp(-0.5 * ((envelope.x - np.pi) / 0.3) ** 2))
    edge = Field.physical(grid, np.exp(-0.5 * (grid.x / 0.3) ** 2))
    with pytest.raises(WrapAroundError) as info:
        runs = [(centred, replace(cfg, alpha=1.2, grid=envelope)), (edge, cfg)]
        _consume(_evolve_pairs(runs, 1.7, "lower t_final"))
    assert str(info.value).startswith("run 1 of 2, alpha 1.7, carrier 3: tail mass fraction")


def _band_limited_runs(data, nx, n_rows):
    """Random data on the modes |m| < nx/8, with per-row alpha, length and
    frame velocity; dt keeps every row inside the accuracy guard.

    On that band the product of u with the cubic step's phase stays on the
    grid to first order in dt, so a step of -dt undoes a step of dt up to
    O(dt^3) (measured 3e-15 at dt = 1e-4); data on the inner half of the
    band alias at first order and return only to O(dt^2), 7e-10.
    """
    runs = []
    for row in range(n_rows):
        grid = make_grid(nx, data.draw(st.sampled_from([2 * np.pi, 3.0, 10.0])))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        uhat = np.zeros(nx, dtype=complex)
        band = np.r_[0 : nx // 8, nx - nx // 8 : nx]
        uhat[band] = rng.standard_normal(band.size) + 1j * rng.standard_normal(band.size)
        uhat *= data.draw(st.floats(0.1, 2.0)) * grid.length / np.sum(np.abs(uhat))
        cfg = SimConfig(
            alpha=data.draw(st.floats(1.05, 2.0)), gamma=1.0, dt=1e-4, t_final=1e-3,
            grid=grid, frame_velocity=data.draw(st.floats(-3.0, 3.0)),
        )
        runs.append((Field(grid, uhat), cfg))
    return runs


@settings(max_examples=20, deadline=None)
@given(data=st.data(), nx=st.sampled_from([16, 64, 256]), n_rows=st.integers(1, 3))
def test_evolve_together_conserves_each_row_mass(data, nx, n_rows):
    runs = _band_limited_runs(data, nx, n_rows)
    for (phi, _), traj in zip(runs, history(runs)):
        masses = np.array([mass(s) for s in traj.states])
        assert np.max(np.abs(masses - mass(phi))) <= 1e-12 * mass(phi)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), nx=st.sampled_from([16, 64, 256]), n_rows=st.integers(1, 3))
def test_evolve_together_step_back_returns_each_row(data, nx, n_rows):
    # Strang splitting is symmetric: a step of -dt undoes a step of dt
    runs = [(phi, replace(cfg, t_final=cfg.dt)) for phi, cfg in _band_limited_runs(data, nx, n_rows)]
    forward = history(runs)
    back = history(
        [(traj.states[-1], replace(cfg, dt=-cfg.dt, t_final=-cfg.dt))
         for (_, cfg), traj in zip(runs, forward)]
    )
    for (phi, _), traj in zip(runs, back):
        got = traj.states[-1].values
        assert np.linalg.norm(got - phi.values) <= 1e-12 * np.linalg.norm(phi.values)


def _assert_rows_match(got_trajs, want_states):
    for traj, want in zip(got_trajs, want_states):
        for got, ref in zip(traj.states, want):
            assert np.linalg.norm(got.values - ref) <= 1e-12 * np.linalg.norm(ref)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), nx=st.sampled_from([16, 64, 256]), n_rows=st.integers(1, 3))
def test_evolve_commutes_with_lattice_translation(data, nx, n_rows):
    # translating by m grid points multiplies each coefficient by e^(-ik x0)
    runs = _band_limited_runs(data, nx, n_rows)
    shifts = [
        np.exp(-1j * cfg.grid.k * data.draw(st.integers(0, nx - 1)) * cfg.grid.dx)
        for _, cfg in runs
    ]
    moved = history(
        [(Field(cfg.grid, phi.values * shift), cfg) for (phi, cfg), shift in zip(runs, shifts)]
    )
    _assert_rows_match(
        moved,
        [[s.values * shift for s in traj.states] for traj, shift in zip(history(runs), shifts)],
    )


@settings(max_examples=20, deadline=None)
@given(data=st.data(), nx=st.sampled_from([16, 64, 256]), n_rows=st.integers(1, 3))
def test_evolve_commutes_with_global_phase(data, nx, n_rows):
    runs = _band_limited_runs(data, nx, n_rows)
    phase = np.exp(1j * data.draw(st.floats(0.0, 2.0 * np.pi)))
    rotated = history([(Field(cfg.grid, phase * phi.values), cfg) for phi, cfg in runs])
    _assert_rows_match(rotated, [[phase * s.values for s in traj.states] for traj in history(runs)])


@settings(max_examples=20, deadline=None)
@given(data=st.data(), nx=st.sampled_from([16, 64, 256]), n_rows=st.integers(1, 3))
def test_evolve_is_galilean_covariant_at_alpha_two(data, nx, n_rows):
    # at alpha = 2, e^(i k0 x) phi evolves to e^(i k0^2 t) e^(i k0 x) u(t, x + 2 k0 t).
    # The data sit on |m| < nx/8 - |m0|, so the shift by m0 = k0/dk wraps no
    # data mode around the band.  The cubic step's second-order products
    # alias past the band, where neither a non-lattice translation nor the
    # shift acts exactly; with sum|uhat|/L <= 0.5 they stay near 1e-13
    # (measured 5.6e-14 over 300 draws).
    runs, moved, modes = [], [], []
    for _ in range(n_rows):
        grid = make_grid(nx, data.draw(st.sampled_from([2 * np.pi, 3.0, 10.0])))
        m0 = data.draw(st.integers(-(nx // 16), nx // 16))
        width = nx // 8 - abs(m0)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        uhat = np.zeros(nx, dtype=complex)
        band = np.r_[0:width, nx - width + 1 : nx]
        uhat[band] = rng.standard_normal(band.size) + 1j * rng.standard_normal(band.size)
        uhat *= data.draw(st.floats(0.1, 0.5)) * grid.length / np.sum(np.abs(uhat))
        cfg = SimConfig(alpha=2.0, gamma=1.0, dt=1e-4, t_final=1e-3, grid=grid)
        runs.append((Field(grid, uhat), cfg))
        moved.append((Field(grid, np.roll(uhat, m0)), cfg))
        modes.append(m0)
    trajs = history(runs + moved)
    want = []
    for traj, (_, cfg), m0 in zip(trajs, runs, modes):
        k0 = m0 * cfg.grid.dk
        want.append([
            np.exp(1j * k0**2 * t) * np.roll(np.exp(2j * k0 * t * cfg.grid.k) * state.values, m0)
            for t, state in zip(traj.times, traj.states)
        ])
    _assert_rows_match(trajs[n_rows:], want)


@pytest.mark.parametrize("t_final", [0.0205, 0.02])  # shrunken final step, or none
def test_evolve_history_limit_counts_every_record(monkeypatch, t_final):
    # a budget of exactly the predicted bytes passes, one byte less raises:
    # nine pinned fields, and eight records of the run's 64 coefficients and
    # a time, all 16 bytes a value
    phi, cfg = _stack_runs(t_final, record_every=3)[1]
    exact = 16 * (9 * 64 + 8 * (64 + 1))
    monkeypatch.setattr(spectral, "MEMORY_BUDGET", exact)
    assert len(evolve(phi, cfg).states) == 8
    monkeypatch.setattr(spectral, "MEMORY_BUDGET", exact - 1)
    with pytest.raises(ValidationError, match="of 1 x 64 values and 8 records: 0 MiB"):
        evolve(phi, cfg)
