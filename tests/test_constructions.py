import os
import subprocess
import sys

import numpy as np
import pytest

import fnls.constructions as constructions
from fnls.errors import ResolutionError, ValidationError, WrapAroundError
from fnls.spectral import Field, make_grid, physical_values, spectral_values
from fnls.norms import SpaceTimeField, mass, sobolev_norm, xsb_norm
from fnls.evolution import SimConfig, Trajectory, evolve
from fnls.symbols import envelope_scale, group_velocity
from fnls.constructions import (
    BOX_XI_SAMPLES,
    BoxSpec,
    _box_lattices,
    approximate_solution,
    box_data,
    check_packet_hypotheses,
    lambda_for,
    modulated_wavepacket,
    rescale_solution,
    trilinear_convolution,
)
import fnls.experiments as experiments
from fnls.experiments import _lattice_length, fit_power_law, run_illposedness_demo

from oracles import TracedPeak, dense, pde_residual, scatter


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
    tt, xx = np.meshgrid(box.tau[0], box.xi[0], indexing="ij")
    on = dense(box) == 1.0
    assert np.all(np.abs(tt[on] - np.abs(xx[on]) ** 1.5) <= 1.0)


def test_box_stores_each_run_from_its_start():
    # the stored band is ones then zeros in every column, and on the whole
    # lattice it is the membership |tau - line| <= 1, bit for bit: the runs
    # come from the lattice arithmetic, for every alpha and both bands
    for alpha in np.round(np.arange(1.1, 2.0, 0.1), 1):
        for n in (16.0, 128.0, 1024.0, 2.0**13):
            for conjugate in (False, True):
                spec = BoxSpec(n=n, alpha=alpha, conjugate=conjugate)
                box = box_data(spec)
                _, (line,), n_tau = _box_lattices([spec])
                assert np.array_equal(dense(box), np.abs(box.tau[0, :, None] - line) <= 1.0)
                length = np.count_nonzero(box.values[0], axis=0)
                assert np.array_equal(box.values[0], np.arange(box.values.shape[1])[:, None] < length)
                assert box.values.shape == (1, length.max(), BOX_XI_SAMPLES)
                assert np.array_equal(box.n_tau, n_tau) and np.array_equal(box.dtau, [0.125])


def test_box_norm_growth_exponent():
    alpha, b = 1.5, 0.51
    ns = [16.0, 32.0, 64.0, 128.0]
    for s in (0.0, 0.125):
        vals = xsb_norm(box_data([BoxSpec(n=n, alpha=alpha) for n in ns]), s, b, alpha, "-")
        slope = fit_power_law("N", ns, vals, drop_preasymptotic=False).fitted_slope
        assert slope == pytest.approx(s + (2 - alpha) / 4.0, abs=0.05)


# ---------------------------------------------------------------- convolution


def _box_field(tau0, xi0, n_tau, runs, dtau=0.5, dxi=0.25):
    """0/1 box on an n_tau x len(runs) lattice as a stack of one, stored as
    box_data stores one: column j is one on rows runs[j][0] .. runs[j][1]
    inclusive."""
    first, last = np.array(runs).T
    length = last - first + 1
    vals = (np.arange(length.max())[:, None] < length).astype(np.float64)
    xi = xi0 + dxi * np.arange(len(runs))
    return SpaceTimeField(tau0, dtau, n_tau, xi[None], first[None], vals[None])


def _direct_trilinear(v1, v2, v3):
    """O(n^3) reference: each cell triple adds v1 v2 v3 at its summed index."""
    shape = tuple(a + b + c - 2 for a, b, c in zip(v1.shape, v2.shape, v3.shape))
    out = np.zeros(shape, dtype=np.result_type(v1, v2, v3))
    n1, m1 = v1.shape
    for (i2, j2), a2 in np.ndenumerate(v2):
        for (i3, j3), a3 in np.ndenumerate(v3):
            out[i2 + i3 : i2 + i3 + n1, j2 + j3 : j2 + j3 + m1] += a2 * a3 * v1
    return out


def test_trilinear_point_masses():
    # runs of length one: every column triple adds one cell^2 at the sum of
    # its three points, in physical coordinates too
    f1 = _box_field(1.0, 2.0, 3, [(0, 0), (2, 2)])
    f2 = _box_field(-3.0, 0.5, 3, [(1, 1), (0, 0)])
    f3 = _box_field(0.25, -1.0, 2, [(0, 0), (1, 1)])
    out = trilinear_convolution(f1, f2, f3)
    cell = 0.5 * 0.25
    assert dense(out).shape == (6, 4)
    assert out.tau[0, 0] == 1.0 - 3.0 + 0.25 and out.xi[0, 0] == 2.0 + 0.5 - 1.0
    direct = _direct_trilinear(dense(f1), dense(f2), dense(f3))
    assert np.array_equal(dense(out), direct * cell**2)
    # the first columns' points meet at tau 1 - 2.5 + 0.25, xi 1.5, alone
    it = int(np.argmin(np.abs(out.tau[0] - (1.0 - 2.5 + 0.25))))
    assert dense(out)[it, 0] == cell**2
    assert np.sum(out.values) == 8 * cell**2


def test_trilinear_matches_brute_force():
    # random boxes, one run per column; the counts are exact, so the output
    # equals the direct accumulation bit for bit
    rng = np.random.default_rng(0)

    def rand_box(tau0, xi0, n_tau, n_xi):
        # the lattice grows where a late run cannot hold the longest run's rows
        a = rng.integers(0, n_tau, n_xi)
        b = a + rng.integers(0, n_tau - a)
        return _box_field(tau0, xi0, max(n_tau, np.max(a + np.max(b - a) + 1)), list(zip(a, b)))

    # the second set is tall (tau >> xi) like a box lattice; some output
    # columns start late and are stored from a row moved up to fit
    moved = 0
    for shapes in (((4, 3), (3, 4), (5, 2)), ((40, 3), (29, 2), (8, 2)), ((17, 16),) * 3):
        f1 = rand_box(0.0, 1.0, *shapes[0])
        f2 = rand_box(-2.0, -1.5, *shapes[1])
        f3 = rand_box(1.0, 0.0, *shapes[2])
        out = trilinear_convolution(f1, f2, f3)
        direct = _direct_trilinear(dense(f1), dense(f2), dense(f3)) * f1.cell**2
        assert out.values.dtype == np.float64
        assert np.array_equal(dense(out), direct)
        np.testing.assert_allclose(out.tau[0], -1.0 + 0.5 * np.arange(direct.shape[0]))
        np.testing.assert_allclose(out.xi[0], -0.5 + 0.25 * np.arange(direct.shape[1]))
        moved += np.count_nonzero(out.first[0] < np.argmax(direct != 0, axis=0))
    assert moved > 0


def test_trilinear_rejects_non_box_input():
    # stored as first rows (0, 1) and runs of 2 and 3: [[1, 1], [1, 1], [0, 1]]
    box = _box_field(0.0, 0.0, 4, [(0, 1), (1, 3)])
    bad = {
        "complex values": box.values.astype(np.complex128),
        "a value other than 0/1": box.values * 2.0,
        "a run after a zero": np.array([[[0, 1], [1, 1], [1, 1]]], float),
        "two runs in one column": np.array([[[1, 1], [0, 1], [1, 1]]], float),
        "an empty column": np.array([[[1, 0], [1, 0], [0, 0]]], float),
    }
    for vals in bad.values():
        other = SpaceTimeField(box.tau0, box.dtau, box.n_tau, box.xi, box.first, vals)
        for args in ((other, box, box), (box, box, other)):
            with pytest.raises(ValidationError, match="0/1 box|one run of ones"):
                trilinear_convolution(*args)


def test_trilinear_repeated_factor_peak_memory():
    # one call at N = 2^13 holds the 32,768 column-triple points a few
    # times over, never a tau lattice or a (tau, xi) lattice (10.7 MB
    # here): 0.4 MiB measured, with the repeated factor or a copy
    alpha, n = 1.5, 2.0**13
    plus = box_data(BoxSpec(n=n, alpha=alpha))
    minus = box_data(BoxSpec(n=n, alpha=alpha, conjugate=True))
    for third in (plus, box_data(BoxSpec(n=n, alpha=alpha))):
        with TracedPeak() as traced:
            out = trilinear_convolution(plus, minus, third)
        assert np.array_equal(out.n_tau, [29_114]) and out.values.shape == (1, 54, 46)
        assert traced.peak < 2**20


def test_boxes_and_convolution_need_no_tau_lattice():
    # at N = 2^19 a box lattice is 219,215 tau samples x 16 columns, and
    # building it densely took 37 MiB: both boxes and their convolution
    # stay under 1 MiB all together
    alpha, n = 1.5, 2.0**19
    with TracedPeak() as traced:
        plus = box_data(BoxSpec(n=n, alpha=alpha))
        minus = box_data(BoxSpec(n=n, alpha=alpha, conjugate=True))
        out = trilinear_convolution(plus, minus, plus)
    assert plus.n_tau[0] == 219_215 and out.n_tau[0] == 2 * plus.n_tau[0] + minus.n_tau[0] - 2
    assert traced.peak < 2**20


def test_import_loads_no_scipy():
    # fnls runs on numpy alone: importing scipy.fft cost every process
    # about 0.3 s and 24 MiB.  Scans run on the calling thread, so no
    # thread pool (concurrent.futures) is loaded either.
    code = (
        "import sys, fnls, fnls.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    scipy_modules, concurrent_modules = out.stdout.splitlines()
    assert scipy_modules == "[]"
    assert concurrent_modules == "[]"


def test_trilinear_resonant_output_support():
    alpha, n = 1.5, 64.0
    spec = BoxSpec(n=n, alpha=alpha)
    plus = box_data(spec)
    minus = box_data(BoxSpec(n=n, alpha=alpha, conjugate=True))
    out = trilinear_convolution(plus, minus, plus)
    power = dense(out) ** 2
    tt, xx = np.meshgrid(out.tau[0], out.xi[0], indexing="ij")
    modulation = np.abs(tt - np.abs(xx) ** alpha)
    mean_mod = np.sum(modulation * power) / np.sum(power)
    # output concentrates within an O(1) strip of the dispersion surface
    assert mean_mod <= 4.0
    support_xi = out.xi[0, np.any(power > 0, axis=0)]
    assert support_xi.min() >= n
    assert support_xi.max() <= n + 3 * spec.width

    # the four-frequency resonance |x1|^a - |x2|^a + |x3|^a - |x1+x2+x3|^a
    # stays O(1) over the boxes' xi samples
    x1, x2, x3 = np.meshgrid(plus.xi[0], minus.xi[0], plus.xi[0], indexing="ij")
    omega = (
        np.abs(x1) ** alpha - np.abs(x2) ** alpha + np.abs(x3) ** alpha
        - np.abs(x1 + x2 + x3) ** alpha
    )
    assert np.max(np.abs(omega)) <= 4.0
    # the counts are exact, so every nonzero cell lies in the strip: three
    # unit strips of the factors plus the resonance (5.62 <= 5.76 measured)
    assert np.max(modulation[power != 0]) <= 3.0 + np.max(np.abs(omega)) + 1e-9
    assert np.count_nonzero(power) < 0.1 * power.size


def test_trilinear_spacing_mismatch():
    xi, first = np.arange(3.0)[None], np.zeros((1, 3), dtype=int)
    a = SpaceTimeField(0.0, 1.0, 3, xi, first, np.ones((1, 1, 3)))
    b = SpaceTimeField(0.0, 0.5, 3, xi, first, np.ones((1, 1, 3)))
    with pytest.raises(ValidationError):
        trilinear_convolution(a, b, a)


def test_every_space_time_field_is_a_stack():
    # one shape: a lone BoxSpec gives a stack of one, so does the
    # convolution of lone boxes, and xsb_norm gives one value per entry of
    # any stack; an unstacked field is rejected
    plus, minus = box_data(BoxSpec(64.0, 1.5)), box_data(BoxSpec(64.0, 1.5, conjugate=True))
    conv = trilinear_convolution(plus, minus, plus)
    stack = box_data([BoxSpec(n, 1.5) for n in (16.0, 32.0, 64.0)])
    for f, entries in ((plus, 1), (minus, 1), (conv, 1), (stack, 3)):
        assert f.values.ndim == 3 and len(f.values) == entries
        for lattice in (f.tau0, f.dtau, f.n_tau, f.dxi, f.cell):
            assert lattice.shape == (entries,)
        assert f.xi.shape == f.first.shape == (entries, f.values.shape[-1])
        assert f.tau.shape == (entries, f.n_tau.max())
        for sign in "-+":
            assert xsb_norm(f, 0.3, 0.51, 1.5, sign).shape == (entries,)
    # a lone box's lattice sizes, as the benchmark reads them
    assert plus.tau.size == plus.n_tau[0] and plus.xi.size == BOX_XI_SAMPLES
    with pytest.raises(ValidationError, match="xi lattice must be a row per entry"):
        SpaceTimeField(plus.tau0[0], plus.dtau[0], plus.n_tau[0], plus.xi[0], plus.first[0],
                       plus.values[0])


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
    image = approximate_solution(
        Trajectory([0.0], y_grid, phi.values[None]), n, alpha, x_grid.length
    )
    assert (image.grid.nx, image.grid.length, image.grid.carrier) == (256, x_grid.length, n)
    expect = np.exp(1j * n * x_grid.x) * _gaussian_at(x_grid.x / beta, 0.5 * y_grid.length)
    got = physical_values(Field(x_grid, scatter(image.states[0], x_grid)))
    assert np.max(np.abs(got - expect)) < 1e-12


def test_change_of_variables_alpha_two():
    # beta = 1 and group velocity 2N: in the rest frame
    # V(t, x) = e^(i(Nx + (N^2 - 2N^2) t)) v(x)
    n, t = 8.0, 0.3
    x_grid, y_grid, phi = _envelope_setup(2.0, n)
    assert y_grid.length == pytest.approx(x_grid.length)
    traj = Trajectory([0.0, t], y_grid, np.stack([phi.values, phi.values]))
    image = approximate_solution(traj, n, 2.0, x_grid.length)
    got = physical_values(Field(x_grid, scatter(image.states[1], x_grid)))
    expect = np.exp(1j * (n * x_grid.x + (n**2 - 2.0 * n**2) * t)) * _gaussian_at(
        x_grid.x, 0.5 * x_grid.length
    )
    assert np.max(np.abs(got - expect)) < 1e-12


def test_change_of_variables_group_velocity():
    # the image is taken in the frame moving with the group velocity, where
    # the packet rests
    alpha, n = 1.7, 32.0
    x_grid, _, phi = _envelope_setup(alpha, n)
    times = np.array([0.0, 0.1, 0.5, 2.0])
    traj = Trajectory(times, phi.grid, np.tile(phi.values, (times.size, 1)))
    image = approximate_solution(traj, n, alpha, x_grid.length)
    full = np.abs(physical_values(Trajectory(times, x_grid, scatter(image, x_grid))))
    for samples in full[1:]:
        assert np.max(np.abs(samples - full[0])) < 1e-12


def test_approximate_solution_constant_envelope_is_plane_wave():
    alpha, n = 1.5, 8.0
    x_grid, y_grid, _ = _envelope_setup(alpha, n)
    a = 0.25
    const = Field.physical(y_grid, np.full(y_grid.nx, a, dtype=complex))
    times = np.array([0.0, 0.125, 0.25])
    traj = Trajectory(times, y_grid, np.tile(const.values, (3, 1)))
    image = approximate_solution(traj, n, alpha, x_grid.length)
    full = physical_values(Trajectory(times, x_grid, scatter(image, x_grid)))
    for t, samples in zip(times, full):
        expect = a * np.exp(1j * (n * x_grid.x + (n**alpha - n * group_velocity(alpha, n)) * t))
        assert np.max(np.abs(samples - expect)) < 1e-12


def test_approximate_solution_mass_jacobian():
    alpha, n = 1.5, 16.0
    x_grid, y_grid, phi = _envelope_setup(alpha, n)
    traj = Trajectory([0.0], y_grid, phi.values[None])
    image = approximate_solution(traj, n, alpha, x_grid.length)
    beta = envelope_scale(alpha, n)
    assert mass(image.states[0]) == pytest.approx(beta * mass(phi), rel=1e-10)


def test_approximate_solution_validations():
    alpha, n = 1.5, 16.0
    x_grid, y_grid, phi = _envelope_setup(alpha, n)
    traj = Trajectory([0.0], y_grid, phi.values[None])
    # wrong torus ratio
    with pytest.raises(ValidationError):
        approximate_solution(traj, n, alpha, x_grid.length * 1.1)
    # carrier off the lattice, with an envelope grid that tiles the torus
    off = n * 1.0001
    off_grid = make_grid(y_grid.nx, x_grid.length / envelope_scale(alpha, off))
    with pytest.raises(ValidationError, match="not on the grid lattice"):
        approximate_solution(
            Trajectory([0.0], off_grid, phi.values[None]), off, alpha, x_grid.length
        )


@pytest.mark.parametrize("second, third, error, message", [
    ("rough", "centred", ResolutionError, "envelope solution under-resolved at t=1.5: outer-band"),
    ("rough", "rough", ResolutionError, "envelope solution under-resolved at t=1.5: outer-band"),
])
def test_approximate_solution_checks_records_in_time_order(second, third, error, message):
    # a record with band-edge mass is under-resolved at any time; the
    # envelope's resolution is measured for all records at once, yet the
    # first failing record wins
    x_grid, y_grid, phi = _envelope_setup(2.0, 8.0)
    rough = phi.values.copy()
    rough[y_grid.nx // 2] += 1.0
    values = {"centred": phi.values, "rough": rough}
    traj = Trajectory([0.0, 1.5, 1.6], y_grid, np.stack([phi.values, values[second], values[third]]))
    with pytest.raises(error, match=message):
        approximate_solution(traj, 8.0, 2.0, x_grid.length)


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
    image = approximate_solution(v_traj, n, alpha, x_grid.length)

    # the image rests in the frame moving with the group velocity c, where
    # the carrier turns at N^alpha - N c
    c = group_velocity(alpha, n)
    phase_rate = n**alpha - n * c
    rot = scatter(image, x_grid) * np.exp(-1j * phase_rate * image.times)[:, None]
    rot_traj = Trajectory(image.times, x_grid, rot)
    resid = pde_residual(rot_traj, alpha, 1.0, frame_velocity=-c, phase_rate=phase_rate)

    # reference: beta^(1/2) * |R(-i d_y) v|_{L2(y)} at matching interior times
    beta = envelope_scale(alpha, n)
    refs = []
    for idx in range(2, image.times.size - 2):
        vhat = v_traj.values[idx]
        rv = remainder_symbol(alpha, [n], y_grid.k)[0] * vhat
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
        rv = remainder_symbol(alpha, [n], y_grid.k)[0] * vhat
        sups.append(np.linalg.norm(rv) / np.sqrt(y_grid.length))
    slope = fit_power_law("N", ns, sups, drop_preasymptotic=False).fitted_slope
    assert slope <= -alpha / 2.0 + 0.3


# ------------------------------------------------------ demodulated grid


def _modulated_gaussian(nx=1024, band_nx=256, length=40.0, m=48, sigma=1.5):
    """The full grid, the carrier N = m dk, its band grid, the envelope on the
    band and the modulated packet on the full grid."""
    full = make_grid(nx, length)
    n = m * full.dk
    band = make_grid(band_nx, length, carrier=n)
    env = Field.physical(band, np.exp(-0.5 * ((band.x - 0.5 * length) / sigma) ** 2))
    return full, band, n, env, Field(full, scatter(env, full))


@pytest.mark.parametrize("frame", [0.0, -1.0])
def test_demodulated_grid_matches_full_grid(frame):
    # e^(-iNx) u on a 256-mode carrier grid, whose symbol is taken at k + N
    # (frame term included), is the same solution as u on the full 1024-mode grid
    full, band, n, env, phi = _modulated_gaussian()
    alpha = 1.5
    v = frame * group_velocity(alpha, n)
    kw = dict(alpha=alpha, gamma=1.0, dt=1e-3, t_final=0.5, record_every=100, frame_velocity=v)
    ref = evolve(phi, SimConfig(grid=full, **kw))
    w_traj = evolve(env, SimConfig(grid=band, **kw))
    assert np.array_equal(w_traj.times, ref.times)
    for a, b in zip(scatter(w_traj, full), ref.values):
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)
    masses = mass(w_traj)  # 500 steps of round-off
    assert np.max(np.abs(masses - masses[0])) <= 1e-12 * masses[0]


# -------------------------------------------------------------- wavepackets


def test_wavepacket_envelope_and_amplitude():
    grid = make_grid(4096, 64.0)
    bands, [m] = modulated_wavepacket([4.0], grid, amplitude=1.0, tau_scale=1.0, x0=32.0)
    f = Field(grid, bands[0])
    envelope = np.exp(-0.5 * (grid.x - 32.0) ** 2)
    assert np.max(np.abs(np.abs(physical_values(f)) - envelope)) < 1e-12
    # 4 = 41 dk + phi with |phi| <= dk/2; the carrier mode times the band
    # is the packet
    assert m == 41
    packet = np.exp(1j * m * grid.dk * grid.x) * physical_values(f)
    assert np.max(np.abs(packet - np.exp(4.0j * grid.x) * envelope)) < 1e-12
    g, [m_g] = modulated_wavepacket([4.0], grid, amplitude=-2.0, tau_scale=1.0, x0=32.0)
    assert m_g == m
    assert np.allclose(g[0], -2.0 * f.values, rtol=1e-12)


def test_wavepacket_l2_identity():
    grid = make_grid(8192, 96.0)
    for tau in (0.5, 1.0, 3.0):
        bands, _ = modulated_wavepacket([8.0], grid, amplitude=1.3, tau_scale=tau, x0=48.0)
        expect = 1.3 * np.sqrt(tau) * np.pi**0.25
        assert sobolev_norm(Field(grid, bands[0]), 0.0) == pytest.approx(expect, rel=0.01)


def test_wavepacket_hypotheses_enforced(monkeypatch):
    # each message names the carrier M, and tau and s where they enter
    with pytest.raises(ValidationError, match=r"M\*tau >= 1 violated for s >= 0: "
                                              r"M = 2, tau = 0.25, s = 0.5$"):
        check_packet_hypotheses(2.0, 0.25, 0.5)
    check_packet_hypotheses(2.0, 0.5, 0.5)
    # s < 0: tau M^(1 + s/sigma) >= 1, with sigma = 1 here
    with pytest.raises(ValidationError, match=r"tau\*M\^\(1\+s/sigma\) >= 1 violated for s < 0: "
                                              r"M = 16, tau = 0.2, s = -0.5$"):
        check_packet_hypotheses(16.0, 0.2, -0.5)
    check_packet_hypotheses(16.0, 0.25, -0.5)
    check_packet_hypotheses(16.0, 0.2, 0.0)
    with pytest.raises(ValidationError, match="carrier frequency must be >= 1, got M = 0.5$"):
        check_packet_hypotheses(0.5, 4.0, 0.0)
    monkeypatch.setattr(constructions, "WAVEPACKET_SMOOTHNESS", 0.25)
    with pytest.raises(ValidationError, match=r"smoothness 0.25 must be >= \|s\|: M = 4, s = -0.5$"):
        check_packet_hypotheses(4.0, 1.0, -0.5)


def test_wavepacket_wrap_guard():
    grid = make_grid(256, 8.0)
    with pytest.raises(WrapAroundError):
        modulated_wavepacket([8.0 * np.pi / 4], grid, amplitude=1.0, tau_scale=2.0, x0=0.5)


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
    same = rescale_solution(traj, 1.0, 1.5)
    assert same.grid == grid
    assert np.max(np.abs(physical_values(same.states[0]) - physical_values(traj.states[0]))) < 1e-13

    lam = 4.0
    scaled = rescale_solution(traj, lam, 1.5)
    assert (scaled.grid.nx, scaled.grid.length) == (256, grid.length / lam)
    assert mass(scaled.states[0]) == pytest.approx(lam * mass(traj.states[0]), rel=1e-12)
    assert scaled.times[-1] == pytest.approx(traj.times[-1] / lam**1.5)


def test_rescale_pointwise_definition():
    # lam u(lam x) for u = e^(iNx) w, on the plain grid of the rescaled torus;
    # a carrier grid's band moves to carrier lam N, with no padding
    lam = 2.0
    for nx, carrier in ((512, 0.0), (128, 20.0)):
        full = make_grid(512, 2 * np.pi)
        grid = make_grid(nx, full.length, carrier=carrier)
        vals = 0.7 * np.exp(-0.5 * ((grid.x - np.pi) / 0.3) ** 2)
        traj = Trajectory([0.0], grid, Field.physical(grid, vals).values[None])
        out = rescale_solution(traj, lam, 1.5)
        assert (out.grid.nx, out.grid.carrier) == (nx, lam * carrier)
        target = make_grid(512, full.length / lam)
        got = physical_values(Field(target, scatter(out.states[0], target)))
        y = lam * target.x
        expect = lam * 0.7 * np.exp(1j * carrier * y - 0.5 * ((y - np.pi) / 0.3) ** 2)
        assert np.max(np.abs(got - expect)) < 1e-12


def test_rescale_residual_scaling_invariance_alpha_two():
    # lam u(lam^2 t, lam x) solves the alpha = 2 equation exactly; the
    # rescaled trajectory's PDE residual stays at the discretization floor
    grid = make_grid(512, 8 * np.pi)
    traj = _short_trajectory(grid, alpha=2.0, a=0.4, dt=1e-4, steps=40)
    floor = np.max(pde_residual(traj, 2.0, 1.0))
    lam = 2.0
    scaled = rescale_solution(traj, lam, 2.0)
    resid = np.max(pde_residual(scaled, 2.0, 1.0))
    # residual scales like lam^(alpha + 3/2) under the zoom; normalize it out
    assert resid <= max(lam**3.5 * floor * 2.0, 1e-6)


def test_rescale_modified_coupling_for_fractional_alpha():
    # for alpha < 2 the zoom maps solutions of gamma = 1 to solutions with
    # gamma' = lam^(alpha - 2); check via the PDE residual
    alpha, lam = 1.5, 2.0
    grid = make_grid(512, 8 * np.pi)
    traj = _short_trajectory(grid, alpha=alpha, a=0.4, dt=1e-4, steps=40)
    scaled = rescale_solution(traj, lam, alpha)
    gamma_prime = lam ** (alpha - 2.0)
    good = np.max(pde_residual(scaled, alpha, gamma_prime))
    bad = np.max(pde_residual(scaled, alpha, 1.0))
    assert good < 0.05 * bad


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
    monkeypatch.setattr(experiments, "evolve_records", None)
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
