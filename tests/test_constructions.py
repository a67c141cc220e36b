import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import fnls.constructions as constructions
from fnls.errors import ResolutionError, ValidationError, WrapAroundError
from fnls.spectral import Field, make_grid, physical_values, resize_spectrum, spectral_values
from fnls.norms import SpaceTimeField, mass, sobolev_norm, xsb_norm
from fnls.evolution import SimConfig, Trajectory, evolve
from fnls.symbols import envelope_scale, group_velocity
from fnls.constructions import (
    BoxSpec,
    WavepacketSpec,
    approximate_solution,
    box_data,
    lambda_for,
    modulated_wavepacket,
    remodulate,
    rescale_solution,
    _fast_len,
    trilinear_convolution,
)
import fnls.experiments as experiments
from fnls.experiments import _lattice_length, fit_power_law, run_illposedness_demo

from oracles import pde_residual


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


def _direct_trilinear(v1, v2, v3):
    """O(n^3) reference: each cell triple adds v1 v2 v3 at its summed index."""
    shape = tuple(a + b + c - 2 for a, b, c in zip(v1.shape, v2.shape, v3.shape))
    out = np.zeros(shape, dtype=np.result_type(v1, v2, v3))
    n1, m1 = v1.shape
    for (i2, j2), a2 in np.ndenumerate(v2):
        for (i3, j3), a3 in np.ndenumerate(v3):
            out[i2 + i3 : i2 + i3 + n1, j2 + j3 : j2 + j3 + m1] += a2 * a3 * v1
    return out


def test_fast_len_is_the_least_5_smooth_length():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for n in range(1, 5001):
        m = n
        while not smooth(m):
            m += 1
        assert _fast_len(n) == m, n


def test_trilinear_matches_brute_force():
    rng = np.random.default_rng(0)

    def rand_field(tau0, xi0, nt, nxi, real):
        tau = tau0 + 0.5 * np.arange(nt)
        xi = xi0 + 0.25 * np.arange(nxi)
        vals = rng.standard_normal((nt, nxi))
        if not real:
            vals = vals + 1j * rng.standard_normal((nt, nxi))
        return SpaceTimeField(tau, xi, vals)

    # the second set is tall (tau >> xi) like a box lattice; its output
    # lengths 75 x 5 are already 5-smooth, so the real transform runs along
    # an odd tau length that is not a power of two
    assert _fast_len(75) == 75 and _fast_len(5) == 5
    for shapes in (((4, 3), (3, 4), (5, 2)), ((40, 3), (29, 2), (8, 2))):
        # complex factors take complex transforms; real ones real transforms
        # and give a real output
        for real in (False, True):
            f1 = rand_field(0.0, 1.0, *shapes[0], real)
            f2 = rand_field(-2.0, -1.5, *shapes[1], real)
            f3 = rand_field(1.0, 0.0, *shapes[2], real)
            out = trilinear_convolution(f1, f2, f3)
            assert out.values.dtype == (np.float64 if real else np.complex128)
            direct = _direct_trilinear(f1.values, f2.values, f3.values) * f1.cell**2
            assert out.values.shape == direct.shape
            err = np.max(np.abs(out.values - direct))
            assert err <= 1e-12 * np.max(np.abs(direct))
            np.testing.assert_allclose(out.values, direct, rtol=1e-10, atol=1e-12)


def test_trilinear_real_boxes_match_complex_boxes():
    # box indicators are real; the same data stored as complex128 take the
    # complex transforms and must give the same convolution
    alpha = 1.5
    for n in (16.0, 256.0):
        plus = box_data(BoxSpec(n=n, alpha=alpha))
        minus = box_data(BoxSpec(n=n, alpha=alpha, conjugate=True))
        assert plus.values.dtype == np.float64

        def as_complex(f):
            return SpaceTimeField(f.tau, f.xi, f.values.astype(np.complex128))

        real_out = trilinear_convolution(plus, minus, plus)
        complex_out = trilinear_convolution(as_complex(plus), as_complex(minus), as_complex(plus))
        assert real_out.values.dtype == np.float64
        assert complex_out.values.dtype == np.complex128
        assert np.array_equal(real_out.tau, complex_out.tau)
        assert np.array_equal(real_out.xi, complex_out.xi)
        scale = np.max(np.abs(complex_out.values))
        assert np.max(np.abs(real_out.values - complex_out.values)) <= 1e-12 * scale


def test_trilinear_repeated_factor_matches_a_copy():
    # f3 is f1 reuses the first spectrum; the product keeps its operand
    # order, so the output is bit-identical to passing a separate copy
    alpha = 1.5
    plus = box_data(BoxSpec(n=64.0, alpha=alpha))
    minus = box_data(BoxSpec(n=64.0, alpha=alpha, conjugate=True))
    phase = np.exp(0.3j * np.arange(plus.xi.size))

    def copy(f):
        return SpaceTimeField(f.tau.copy(), f.xi.copy(), f.values.copy())

    for a, b in (
        (plus, minus),
        (SpaceTimeField(plus.tau, plus.xi, plus.values * phase), minus),
    ):
        same = trilinear_convolution(a, b, a)
        other = trilinear_convolution(a, b, copy(a))
        assert same.values.dtype == a.values.dtype
        assert np.array_equal(same.values, other.values)
        assert np.array_equal(same.tau, other.tau)
        assert np.array_equal(same.xi, other.xi)


def test_trilinear_repeated_factor_peak_memory():
    # one call on box data holds at most three spectra of the padded real
    # transform at once, with the repeated factor or a copy of it (3.05 and
    # 3.00 measured); multiplying the spectra into a new array holds five
    alpha = 1.5
    plus = box_data(BoxSpec(n=1024.0, alpha=alpha))
    minus = box_data(BoxSpec(n=1024.0, alpha=alpha, conjugate=True))
    n_tau = 2 * plus.tau.size + minus.tau.size - 2
    n_xi = 2 * plus.xi.size + minus.xi.size - 2
    spectrum_bytes = 16 * _fast_len(n_xi) * (_fast_len(n_tau) // 2 + 1)
    for third in (plus, box_data(BoxSpec(n=1024.0, alpha=alpha))):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = trilinear_convolution(plus, minus, third)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.values.shape == (n_tau, n_xi)
        assert (peak - base) / spectrum_bytes <= 3.1


def test_import_loads_no_scipy():
    # fnls runs on numpy alone: importing scipy.fft cost every process
    # about 0.3 s and 24 MiB
    code = (
        "import sys, fnls, fnls.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_trilinear_resonant_output_support():
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
    # |x1|^a - |x2|^a + |x3|^a - |x1+x2+x3|^a; over the boxes it stays O(1)
    rng = np.random.default_rng(1)
    x1 = n + spec.width * rng.random(500)
    x2 = -n + spec.width * rng.random(500)
    x3 = n + spec.width * rng.random(500)
    omega = (
        np.abs(x1) ** alpha - np.abs(x2) ** alpha + np.abs(x3) ** alpha
        - np.abs(x1 + x2 + x3) ** alpha
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
    image = approximate_solution(Trajectory([0.0], y_grid, phi.values[None]), n, alpha, x_grid)
    expect = np.exp(1j * n * x_grid.x) * _gaussian_at(x_grid.x / beta, 0.5 * y_grid.length)
    assert np.max(np.abs(physical_values(image.states[0]) - expect)) < 1e-12


def test_change_of_variables_alpha_two():
    # beta = 1 and group velocity 2N: V(t, x) = e^(i(Nx + N^2 t)) v(x + 2N t)
    n, t = 8.0, 0.3
    x_grid, y_grid, phi = _envelope_setup(2.0, n)
    assert y_grid.length == pytest.approx(x_grid.length)
    traj = Trajectory([0.0, t], y_grid, np.stack([phi.values, phi.values]))
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
    traj = Trajectory(times, phi.grid, np.tile(phi.values, (times.size, 1)))
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
    traj = Trajectory(times, y_grid, np.tile(const.values, (3, 1)))
    image = approximate_solution(traj, n, alpha, x_grid)
    for t, state in zip(times, image.states):
        expect = a * np.exp(1j * (n * x_grid.x + n**alpha * t))
        assert np.max(np.abs(physical_values(state) - expect)) < 1e-12


def test_approximate_solution_mass_jacobian():
    alpha, n = 1.5, 16.0
    x_grid, y_grid, phi = _envelope_setup(alpha, n)
    traj = Trajectory([0.0], y_grid, phi.values[None])
    image = approximate_solution(traj, n, alpha, x_grid)
    beta = envelope_scale(alpha, n)
    assert mass(image.states[0]) == pytest.approx(beta * mass(phi), rel=1e-10)


def test_approximate_solution_validations():
    alpha, n = 1.5, 16.0
    x_grid, y_grid, phi = _envelope_setup(alpha, n)
    traj = Trajectory([0.0], y_grid, phi.values[None])
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

    rot = image.values * np.exp(-1j * n**alpha * image.times)[:, None]
    rot_traj = Trajectory(image.times, x_grid, rot)
    resid = pde_residual(rot_traj, alpha, 1.0, phase_rate=n**alpha)

    # reference: beta^(1/2) * |R(-i d_y) v|_{L2(y)} at matching interior times
    beta = envelope_scale(alpha, n)
    refs = []
    for idx in range(2, image.times.size - 2):
        vhat = v_traj.values[idx]
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


# ------------------------------------------------------ demodulated grid


def _modulated_gaussian(nx=1024, band_nx=256, length=40.0, m=48, sigma=1.5):
    """The full and band grids, the carrier, the envelope on the band and
    the modulated packet on the full grid."""
    full = make_grid(nx, length)
    band = make_grid(band_nx, length)
    n = m * full.dk
    env = Field.physical(band, np.exp(-0.5 * ((band.x - 0.5 * length) / sigma) ** 2))
    phi = remodulate(Trajectory([0.0], band, env.values[None]), n, full).states[0]
    return full, band, n, env, phi


@pytest.mark.parametrize("frame", [0.0, -1.0])
def test_demodulated_grid_matches_full_grid(frame):
    # e^(-iNx) u on a 256-mode band with the symbol at k + N (frame term
    # included) is the same solution as u on the full 1024-mode grid
    full, band, n, env, phi = _modulated_gaussian()
    alpha = 1.5
    v = frame * group_velocity(alpha, n)
    kw = dict(alpha=alpha, gamma=1.0, dt=1e-3, t_final=0.5, record_every=100, frame_velocity=v)
    ref = evolve(phi, SimConfig(grid=full, **kw))
    w_traj = evolve(env, SimConfig(grid=band, carrier=n, **kw))
    got = remodulate(w_traj, n, full)
    assert np.array_equal(got.times, ref.times)
    for a, b in zip(got.values, ref.values):
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)
    masses = mass(w_traj)  # 500 steps of round-off
    assert np.max(np.abs(masses - masses[0])) <= 1e-12 * masses[0]


def test_remodulate_moves_the_band_and_validates():
    full, band, n, env, phi = _modulated_gaussian()
    traj = Trajectory([0.0], band, env.values[None])
    assert phi.grid is full
    assert mass(phi) == pytest.approx(mass(env), rel=1e-14)
    back = np.roll(phi.values, -round(n / full.dk))
    assert np.array_equal(back, resize_spectrum(env.values, full.nx))
    # carrier off the lattice: N*L/2pi not an integer
    off = n * 1.01
    with pytest.raises(ValidationError):
        remodulate(traj, off, full)
    with pytest.raises(ValidationError):
        SimConfig(alpha=1.5, gamma=1.0, dt=1e-3, t_final=0.1, grid=band, carrier=off)
    # a band that cannot fit the grid, or that lies on another torus
    with pytest.raises(ResolutionError):
        remodulate(traj, 400 * full.dk, full)
    with pytest.raises(ValidationError):
        remodulate(traj, n, make_grid(1024, 2 * full.length))


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


def test_wavepacket_hypotheses_enforced(monkeypatch):
    with pytest.raises(ValidationError):
        WavepacketSpec(amplitude=1.0, carrier=2.0, tau_scale=0.25, x0=0.0, s=0.5)
    monkeypatch.setattr(constructions, "WAVEPACKET_SMOOTHNESS", 0.25)
    with pytest.raises(ValidationError):
        WavepacketSpec(amplitude=1.0, carrier=4.0, tau_scale=1.0, x0=0.0, s=-0.5)
    with pytest.raises(ValidationError):
        WavepacketSpec(amplitude=1.0, carrier=0.5, tau_scale=4.0, x0=0.0)


def test_wavepacket_wrap_guard():
    grid = make_grid(256, 8.0)
    spec = WavepacketSpec(amplitude=1.0, carrier=8.0 * np.pi / 4, tau_scale=2.0, x0=0.5)
    with pytest.raises(WrapAroundError):
        modulated_wavepacket(spec, grid)


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
    traj = Trajectory([0.0], grid, Field.physical(grid, vals).values[None])
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
    traj = Trajectory([0.0], grid, full.values[None])
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


def test_nls_pair_validation(monkeypatch):
    # the pair's data norm epsilon and separation delta are checked where the
    # pair is built, in run_illposedness_demo, before anything is lifted
    monkeypatch.setattr(experiments, "approximate_solution", None)
    monkeypatch.setattr(experiments, "evolve_together", None)
    for epsilon, delta, message in [
        (1.5, 0.001, "epsilon must lie in"),
        (0.3, 0.2, "delta must satisfy"),
        (0.3, -0.001, "delta must satisfy"),
    ]:
        with pytest.raises(ValidationError, match=message):
            run_illposedness_demo(
                alpha=1.5, s=0.0, epsilon=epsilon, delta=delta,
                t_internal=1.0, n_carrier=16.0,
            )
