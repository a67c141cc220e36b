import numpy as np
import pytest

from fnls.errors import ResolutionError, ValidationError, WrapAroundError
from fnls.spectral import Field, make_grid, physical_values, spectral_values
from fnls.norms import SpaceTimeField, mass, sobolev_norm, xsb_norm
from fnls.evolution import SimConfig, Trajectory, evolve
from fnls.symbols import envelope_scale, group_velocity
from fnls.constructions import (
    ENVELOPES,
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
from fnls.experiments import _lattice_length, fit_power_law, pde_residual


# ---------------------------------------------------------------------- boxes


def test_box_width_tends_to_one_near_alpha_two():
    assert BoxSpec(n=256.0, alpha=1.99).width == pytest.approx(1.0, abs=0.05)
    assert BoxSpec(n=64.0, alpha=1.5).width == pytest.approx(64.0**0.25)


def test_box_spec_validation():
    with pytest.raises(ValidationError):
        BoxSpec(n=12.0, alpha=1.5)  # not dyadic
    with pytest.raises(ValidationError):
        BoxSpec(n=8.0, alpha=1.5)  # below 16
    with pytest.raises(ValidationError):
        BoxSpec(n=64.0, alpha=2.0)
    with pytest.raises(ValidationError):
        BoxSpec(n=64.0, alpha=1.5, xi_samples_per_box=4)


def test_box_mass_equals_area():
    for conjugate in (False, True):
        spec = BoxSpec(n=64.0, alpha=1.5, conjugate=conjugate)
        box = box_data(spec)
        area = np.sum(np.abs(box.values)) * box.cell
        cell_tol = 2.0 * spec.width * (box.dtau / 2.0 + box.dxi / spec.width)
        assert abs(area - 2.0 * spec.width) <= cell_tol


def test_box_indicator_support():
    spec = BoxSpec(n=32.0, alpha=1.5)
    box = box_data(spec)
    assert set(np.unique(np.abs(box.values))) <= {0.0, 1.0}
    assert box.xi.min() >= 32.0
    assert box.xi.max() <= 32.0 + spec.width
    tt, xx = np.meshgrid(box.tau, box.xi, indexing="ij")
    on = np.abs(box.values) == 1.0
    assert np.all(np.abs(tt[on] - np.abs(xx[on]) ** 1.5) <= 1.0)


def test_box_norm_growth_exponent():
    alpha, b = 1.5, 0.51
    ns = [16.0, 32.0, 64.0, 128.0]
    for s in (0.0, 0.125):
        vals = [
            xsb_norm(box_data(BoxSpec(n=n, alpha=alpha)), s, b, alpha, "-")
            for n in ns
        ]
        slope = fit_power_law("N", ns, vals, drop_preasymptotic=False).fitted_slope
        assert slope == pytest.approx(s + (2 - alpha) / 4.0, abs=0.05)


# ---------------------------------------------------------------- convolution


def test_trilinear_point_masses():
    def delta(tau0, xi0, amp):
        tau = tau0 + 0.5 * np.arange(3)
        xi = xi0 + 0.25 * np.arange(3)
        vals = np.zeros((3, 3), dtype=complex)
        vals[0, 0] = amp
        return SpaceTimeField(tau, xi, vals)

    f1 = delta(1.0, 2.0, 2.0)
    f2 = delta(-3.0, 0.5, 1.5)
    f3 = delta(0.25, -1.0, -1.0 + 1.0j)
    out = trilinear_convolution(f1, f2, f3)
    cell = 0.5 * 0.25
    it = int(np.argmin(np.abs(out.tau - (1.0 - 3.0 + 0.25))))
    ix = int(np.argmin(np.abs(out.xi - (2.0 + 0.5 - 1.0))))
    expect = 2.0 * 1.5 * (-1.0 + 1.0j) * cell**2
    assert out.values[it, ix] == pytest.approx(expect, rel=1e-12)
    total = np.sum(np.abs(out.values) > 1e-14)
    assert total == 1


def test_trilinear_matches_brute_force():
    rng = np.random.default_rng(0)

    def rand_field(tau0, xi0, nt, nxi):
        tau = tau0 + 0.5 * np.arange(nt)
        xi = xi0 + 0.25 * np.arange(nxi)
        vals = rng.standard_normal((nt, nxi)) + 1j * rng.standard_normal((nt, nxi))
        return SpaceTimeField(tau, xi, vals)

    f1 = rand_field(0.0, 1.0, 4, 3)
    f2 = rand_field(-2.0, -1.5, 3, 4)
    f3 = rand_field(1.0, 0.0, 5, 2)
    out = trilinear_convolution(f1, f2, f3)

    # O(n^3) direct accumulation
    acc = {}
    for (i1, j1), v1 in np.ndenumerate(f1.values):
        for (i2, j2), v2 in np.ndenumerate(f2.values):
            for (i3, j3), v3 in np.ndenumerate(f3.values):
                key = (i1 + i2 + i3, j1 + j2 + j3)
                acc[key] = acc.get(key, 0.0) + v1 * v2 * v3
    cell = f1.cell
    for (it, ix), val in acc.items():
        assert out.values[it, ix] == pytest.approx(val * cell**2, rel=1e-10)


def test_trilinear_resonant_output_support():
    from fnls.symbols import resonance

    alpha, n = 1.5, 64.0
    spec = BoxSpec(n=n, alpha=alpha)
    plus = box_data(spec)
    minus = box_data(BoxSpec(n=n, alpha=alpha, conjugate=True))
    out = trilinear_convolution(plus, minus, plus)
    power = np.abs(out.values) ** 2
    tt, xx = np.meshgrid(out.tau, out.xi, indexing="ij")
    modulation = np.abs(tt - np.abs(xx) ** alpha)
    mean_mod = np.sum(modulation * power) / np.sum(power)
    # output concentrates within an O(1) strip of the dispersion surface;
    # the strip half-thickness is 3 (modulations) + curvature spread
    assert mean_mod <= 4.0
    support_xi = out.xi[np.any(power > 0, axis=0)]
    assert support_xi.min() >= n
    assert support_xi.max() <= n + 3 * spec.width

    # the O(1) strip thickness is exactly the four-frequency resonance
    # |x1|^a - |x2|^a + |x3|^a - |x1+x2+x3|^a, assembled from sum-zero
    # resonance() evaluations; over the boxes it stays O(1)
    rng = np.random.default_rng(1)
    x1 = n + spec.width * rng.random(500)
    x2 = -n + spec.width * rng.random(500)
    x3 = n + spec.width * rng.random(500)
    total = x1 + x2 + x3
    omega = (
        resonance(alpha, x1, x2, -(x1 + x2))
        + resonance(alpha, x3, -total, x1 + x2)
        - 2.0 * np.abs(x1 + x2) ** alpha
    )
    assert np.max(np.abs(omega)) <= 4.0


def test_trilinear_spacing_mismatch():
    a = SpaceTimeField(np.arange(3.0), np.arange(3.0), np.zeros((3, 3)))
    b = SpaceTimeField(np.arange(3.0) * 0.5, np.arange(3.0), np.zeros((3, 3)))
    with pytest.raises(ValidationError):
        trilinear_convolution(a, b, a)


# ------------------------------------------------------- approximate solution


def _envelope_setup(alpha, n, nx=1024, nx_env=256, length=48.0, sigma=2.0, amp=0.3):
    length = _lattice_length(length, n)
    beta = envelope_scale(alpha, n)
    x_grid = make_grid(nx, length)
    y_grid = make_grid(nx_env, length / beta)
    env = amp * np.exp(-0.5 * ((y_grid.x - 0.5 * y_grid.length) / sigma) ** 2)
    return x_grid, y_grid, Field.physical(y_grid, env.astype(complex))


def _gaussian_at(y, center, sigma=2.0, amp=0.3):
    return amp * np.exp(-0.5 * ((y - center) / sigma) ** 2)


def test_change_of_variables_at_origin():
    # at t = 0 the image is e^(iNx) v(y) with y = x / beta
    alpha, n = 1.5, 16.0
    x_grid, y_grid, phi = _envelope_setup(alpha, n)
    beta = envelope_scale(alpha, n)
    assert beta == pytest.approx(np.sqrt(0.5 * alpha * (alpha - 1)) * n ** ((alpha - 2) / 2))
    image = approximate_solution(Trajectory(np.array([0.0]), [phi]), n, alpha, x_grid)
    expect = np.exp(1j * n * x_grid.x) * _gaussian_at(x_grid.x / beta, 0.5 * y_grid.length)
    assert np.max(np.abs(physical_values(image.states[0]) - expect)) < 1e-12


def test_change_of_variables_alpha_two():
    # beta = 1 and group velocity 2N: V(t, x) = e^(i(Nx + N^2 t)) v(x + 2N t)
    n, t = 8.0, 0.3
    x_grid, y_grid, phi = _envelope_setup(2.0, n)
    assert y_grid.length == pytest.approx(x_grid.length)
    traj = Trajectory(np.array([0.0, t]), [phi, phi])
    got = physical_values(approximate_solution(traj, n, 2.0, x_grid).states[1])
    expect = np.exp(1j * (n * x_grid.x + n**2 * t)) * _gaussian_at(
        x_grid.x + 2.0 * n * t, 0.5 * x_grid.length
    )
    assert np.max(np.abs(got - expect)) < 1e-12


def test_change_of_variables_group_velocity():
    # in the frame moving with the group velocity the packet rests
    alpha, n = 1.7, 32.0
    x_grid, _, phi = _envelope_setup(alpha, n)
    times = np.array([0.0, 0.1, 0.5, 2.0])
    traj = Trajectory(times, [phi] * times.size)
    image = approximate_solution(
        traj, n, alpha, x_grid, frame_velocity=-group_velocity(alpha, n)
    )
    rest = np.abs(physical_values(image.states[0]))
    for state in image.states[1:]:
        assert np.max(np.abs(np.abs(physical_values(state)) - rest)) < 1e-12


def test_approximate_solution_constant_envelope_is_plane_wave():
    alpha, n = 1.5, 8.0
    x_grid, y_grid, _ = _envelope_setup(alpha, n)
    a = 0.25
    const = Field.physical(y_grid, np.full(y_grid.nx, a, dtype=complex))
    times = np.array([0.0, 0.125, 0.25])
    traj = Trajectory(times, [const] * 3)
    image = approximate_solution(traj, n, alpha, x_grid)
    for t, state in zip(times, image.states):
        expect = a * np.exp(1j * (n * x_grid.x + n**alpha * t))
        assert np.max(np.abs(physical_values(state) - expect)) < 1e-12


def test_approximate_solution_mass_jacobian():
    alpha, n = 1.5, 16.0
    x_grid, y_grid, phi = _envelope_setup(alpha, n)
    traj = Trajectory(np.array([0.0]), [phi])
    image = approximate_solution(traj, n, alpha, x_grid)
    beta = envelope_scale(alpha, n)
    assert mass(image.states[0]) == pytest.approx(beta * mass(phi), rel=1e-10)


def test_approximate_solution_validations():
    alpha, n = 1.5, 16.0
    x_grid, y_grid, phi = _envelope_setup(alpha, n)
    traj = Trajectory(np.array([0.0]), [phi])
    # wrong torus ratio
    with pytest.raises(ValidationError):
        approximate_solution(traj, n, alpha, make_grid(1024, x_grid.length * 1.1))
    # carrier off the lattice
    with pytest.raises(ValidationError):
        approximate_solution(traj, n * 1.0001, alpha, x_grid)
    # band does not fit: same torus but too few modes for carrier + envelope
    with pytest.raises(ResolutionError):
        approximate_solution(traj, n, alpha, make_grid(256, x_grid.length))


def test_approximate_solution_residual_matches_remainder_term():
    # build V from a short NLS run and measure the full PDE residual with the
    # carrier phase removed: it equals the transported remainder-symbol term
    from fnls.symbols import remainder_symbol

    alpha, n = 1.5, 32.0
    x_grid, y_grid, phi = _envelope_setup(
        alpha, n, nx=2048, nx_env=512, sigma=1.5, amp=0.3
    )
    dt = 2e-4
    v_cfg = SimConfig(alpha=2.0, gamma=1.0, dt=dt, t_final=40 * dt, grid=y_grid, record_every=1)
    v_traj = evolve(phi, v_cfg)
    image = approximate_solution(v_traj, n, alpha, x_grid)

    rot = [
        Field.spectral(x_grid, spectral_values(st) * np.exp(-1j * n**alpha * t))
        for t, st in zip(image.times, image.states)
    ]
    rot_traj = Trajectory(image.times, rot)
    resid = pde_residual(rot_traj, alpha, 1.0, phase_rate=n**alpha)

    # reference: beta^(1/2) * |R(-i d_y) v|_{L2(y)} at matching interior times
    beta = envelope_scale(alpha, n)
    refs = []
    for idx in range(2, image.times.size - 2):
        vhat = spectral_values(v_traj.states[idx])
        rv = remainder_symbol(alpha, n, y_grid.k) * vhat
        refs.append(np.sqrt(beta) * np.linalg.norm(rv) / np.sqrt(y_grid.length))
    refs = np.array(refs)
    assert np.all(np.abs(resid - refs) <= 0.05 * refs)


def test_approximate_solution_residual_decays_in_n():
    from fnls.symbols import remainder_symbol

    alpha = 1.5
    sups = []
    ns = [16.0, 32.0, 64.0, 128.0]
    for n in ns:
        _, y_grid, phi = _envelope_setup(alpha, n, nx_env=512, sigma=1.5)
        vhat = spectral_values(phi)
        rv = remainder_symbol(alpha, n, y_grid.k) * vhat
        sups.append(np.linalg.norm(rv) / np.sqrt(y_grid.length))
    slope = fit_power_law("N", ns, sups, drop_preasymptotic=False).fitted_slope
    assert slope <= -alpha / 2.0 + 0.3


# -------------------------------------------------------------- wavepackets


def test_wavepacket_envelope_and_amplitude():
    grid = make_grid(4096, 64.0)
    spec = WavepacketSpec(amplitude=1.0, carrier=4.0, tau_scale=1.0, x0=32.0)
    f = modulated_wavepacket(spec, grid)
    envelope = np.exp(-0.5 * (grid.x - 32.0) ** 2)
    assert np.max(np.abs(np.abs(physical_values(f)) - envelope)) < 1e-12
    g = modulated_wavepacket(
        WavepacketSpec(amplitude=-2.0, carrier=4.0, tau_scale=1.0, x0=32.0), grid
    )
    assert np.allclose(g.values, -2.0 * f.values, rtol=1e-12)


def test_wavepacket_l2_identity():
    grid = make_grid(8192, 96.0)
    for tau in (0.5, 1.0, 3.0):
        spec = WavepacketSpec(amplitude=1.3, carrier=8.0, tau_scale=tau, x0=48.0)
        f = modulated_wavepacket(spec, grid)
        expect = 1.3 * np.sqrt(tau) * np.pi**0.25
        assert sobolev_norm(f, 0.0) == pytest.approx(expect, rel=0.01)


def test_wavepacket_hypotheses_enforced():
    with pytest.raises(ValidationError):
        WavepacketSpec(amplitude=1.0, carrier=2.0, tau_scale=0.25, x0=0.0, s=0.5)
    with pytest.raises(ValidationError):
        WavepacketSpec(amplitude=1.0, carrier=4.0, tau_scale=1.0, x0=0.0, s=-0.5, smoothness=0.25)
    with pytest.raises(ValidationError):
        WavepacketSpec(amplitude=1.0, carrier=0.5, tau_scale=4.0, x0=0.0)


def test_wavepacket_wrap_guard():
    grid = make_grid(256, 8.0)
    spec = WavepacketSpec(amplitude=1.0, carrier=8.0 * np.pi / 4, tau_scale=2.0, x0=0.5)
    with pytest.raises(WrapAroundError):
        modulated_wavepacket(spec, grid)


def test_wavepacket_compact_bump_profile():
    grid = make_grid(4096, 64.0)
    spec = WavepacketSpec(
        amplitude=1.0, carrier=4.0, tau_scale=4.0, x0=32.0, profile="bump"
    )
    f = modulated_wavepacket(spec, grid)
    vals = np.abs(physical_values(f))
    off = np.abs(grid.x - 32.0) >= 4.0
    # the profile vanishes exactly off its support; the stored packet's
    # samples come back through an inverse FFT, so they vanish to round-off
    assert np.all(ENVELOPES["bump"]((grid.x[off] - 32.0) / 4.0) == 0.0)
    assert np.all(vals[off] <= 1e-15)
    assert vals[np.argmin(np.abs(grid.x - 32.0))] == pytest.approx(1.0, rel=1e-12)


# ------------------------------------------------------------------ rescaling


def _short_trajectory(grid, alpha=1.5, gamma=1.0, a=0.5, dt=2e-4, steps=40):
    phi = Field.physical(
        grid, a * np.exp(-0.5 * ((grid.x - grid.length / 2) / 0.7) ** 2).astype(complex)
    )
    cfg = SimConfig(alpha=alpha, gamma=gamma, dt=dt, t_final=steps * dt, grid=grid, record_every=1)
    return evolve(phi, cfg)


def test_rescale_identity_and_mass():
    grid = make_grid(256, 2 * np.pi)
    traj = _short_trajectory(grid)
    same = rescale_solution(traj, 1.0, 1.5, grid)
    assert np.max(np.abs(physical_values(same.states[0]) - physical_values(traj.states[0]))) < 1e-13

    lam = 4.0
    target = make_grid(256, grid.length / lam)
    scaled = rescale_solution(traj, lam, 1.5, target)
    assert mass(scaled.states[0]) == pytest.approx(lam * mass(traj.states[0]), rel=1e-12)
    assert scaled.times[-1] == pytest.approx(traj.times[-1] / lam**1.5)


def test_rescale_pointwise_definition():
    grid = make_grid(512, 2 * np.pi)
    vals = 0.7 * np.exp(-0.5 * ((grid.x - np.pi) / 0.5) ** 2)
    traj = Trajectory(np.array([0.0]), [Field.physical(grid, vals)])
    lam = 2.0
    target = make_grid(512, grid.length / lam)
    out = rescale_solution(traj, lam, 1.5, target)
    expect = lam * 0.7 * np.exp(-0.5 * ((lam * target.x - np.pi) / 0.5) ** 2)
    assert np.max(np.abs(physical_values(out.states[0]) - expect)) < 1e-12


def test_rescale_residual_scaling_invariance_alpha_two():
    # lam u(lam^2 t, lam x) solves the alpha = 2 equation exactly; the
    # rescaled trajectory's PDE residual stays at the discretization floor
    grid = make_grid(512, 8 * np.pi)
    traj = _short_trajectory(grid, alpha=2.0, a=0.4, dt=1e-4, steps=40)
    floor = np.max(pde_residual(traj, 2.0, 1.0))
    lam = 2.0
    target = make_grid(512, grid.length / lam)
    scaled = rescale_solution(traj, lam, 2.0, target)
    resid = np.max(pde_residual(scaled, 2.0, 1.0))
    # residual scales like lam^(alpha + 3/2) under the zoom; normalize it out
    assert resid <= max(lam**3.5 * floor * 2.0, 1e-6)


def test_rescale_modified_coupling_for_fractional_alpha():
    # for alpha < 2 the zoom maps solutions of gamma = 1 to solutions with
    # gamma' = lam^(alpha - 2); check via the PDE residual
    alpha, lam = 1.5, 2.0
    grid = make_grid(512, 8 * np.pi)
    traj = _short_trajectory(grid, alpha=alpha, a=0.4, dt=1e-4, steps=40)
    target = make_grid(512, grid.length / lam)
    scaled = rescale_solution(traj, lam, alpha, target)
    gamma_prime = lam ** (alpha - 2.0)
    good = np.max(pde_residual(scaled, alpha, gamma_prime))
    bad = np.max(pde_residual(scaled, alpha, 1.0))
    assert good < 0.05 * bad


def test_rescale_truncation_guard():
    grid = make_grid(256, 2 * np.pi)
    rng = np.random.default_rng(0)
    full = Field.physical(grid, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    traj = Trajectory(np.array([0.0]), [full])
    target = make_grid(64, grid.length / 2.0)
    with pytest.raises(ResolutionError):
        rescale_solution(traj, 2.0, 1.5, target)


def test_lambda_for_values():
    assert lambda_for((2.0 - 1.5) / 4.0, 1.5, 37.0) == pytest.approx(1.0)
    assert lambda_for(0.0, 1.5, 16.0) == pytest.approx(16.0**0.25)
    # exponent positive iff s < (2-alpha)/4
    assert lambda_for(0.1, 1.5, 64.0) > 1.0
    assert lambda_for(0.2, 1.5, 64.0) < 1.0
    with pytest.raises(ValidationError):
        lambda_for(-0.5, 1.5, 16.0)


# -------------------------------------------------------------------- nls pair


def test_nls_pair_construction():
    grid = make_grid(1024, 200.0)
    eps, delta = 0.3, 0.003
    p1, p2 = nls_pair(eps, delta, grid, sigma=8.0, s=0.0)
    assert sobolev_norm(p1, 0.0) == pytest.approx(eps, rel=1e-12)
    rel_sep = sobolev_norm(p2 - p1, 0.0)
    assert rel_sep / sobolev_norm(p1, 0.0) == pytest.approx(delta / eps, rel=0.01)


def test_nls_pair_zero_delta_identical():
    grid = make_grid(1024, 200.0)
    p1, p2 = nls_pair(0.3, 0.0, grid, sigma=8.0)
    assert np.array_equal(p1.values, p2.values)


def test_nls_pair_validation():
    grid = make_grid(1024, 200.0)
    with pytest.raises(ValidationError):
        nls_pair(1.5, 0.001, grid, sigma=8.0)
    with pytest.raises(ValidationError):
        nls_pair(0.3, 0.2, grid, sigma=8.0)
