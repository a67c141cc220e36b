import time
import tracemalloc

import numpy as np
import pytest

import fnls.evolution as evolution
import fnls.experiments as experiments
import fnls.spectral as spectral
from fnls.constructions import BoxSpec, WavepacketSpec, box_data, modulated_wavepacket
from fnls.constructions import approximate_solution, rescale_solution, trilinear_convolution
from fnls.norms import energy, mass, sobolev_norm, xsb_norm
from fnls.symbols import envelope_scale, group_velocity, remainder_symbol

from fnls.errors import ResolutionError, ValidationError, WrapAroundError
from fnls.spectral import Field, make_grid, physical_values
from fnls.evolution import SimConfig, Trajectory, evolve, evolve_records
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

from oracles import history, pde_residual, scatter


def _difference(a: Trajectory, b: Trajectory) -> Trajectory:
    """a's values less b's, record by record, on a's grid."""
    assert a.grid == b.grid and a.values.shape == b.values.shape
    return Trajectory(a.times, a.grid, a.values - b.values)


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
    # a zero, negative, infinite or NaN value is named by its parameter
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValidationError, match=f"finite data: M = 8 gives {bad:g}"):
            fit_power_law("M", [1.0, 2.0, 4.0, 8.0], [1.0, 2.0, 3.0, bad])
    # of five points the smallest is dropped as preasymptotic, but a repeat
    # of it is still a repeat
    with pytest.raises(ValidationError, match="distinct N values: N = 16 repeats"):
        fit_power_law("N", [16.0, 32.0, 64.0, 128.0, 16.0], [1.0, 2.0, 3.0, 4.0, 1.0])


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
    rep = run_conservation_suite(cfg, initial_field(grid, "gaussian:a=1,sigma=0.5"))
    assert rep["mass_drift"] <= 1e-11
    assert 2.5 <= rep["energy_drift_ratio"] <= 5.5
    # gamma = 0: the step's cubic phase is exactly 1, so both drifts sit at round-off
    cfg0 = SimConfig(alpha=1.5, gamma=0.0, dt=2e-3, t_final=0.2, grid=grid, record_every=20)
    rep0 = run_conservation_suite(cfg0, initial_field(grid, "gaussian:a=1,sigma=0.5"))
    assert rep0["energy_drift"] <= 1e-10
    assert rep0["mass_drift"] <= 1e-11


@pytest.mark.parametrize("nx, dt, t_final", [
    (256, 1e-3, 0.014),  # 15 records: one short of a block of 16
    (256, 1e-3, 0.015),  # 16: one block
    (256, 1e-3, 0.016),  # 17: a block and one record
    (256, 1e-3, 0.0155),  # 17, the last after a shrunken step
    (256, -1e-3, -0.016),  # 17, backward in time
    (4096, 1e-5, 3e-5),  # blocks of one record
])
def test_record_summary_equals_whole_history_arithmetic(nx, dt, t_final):
    # every transform and reduction of a block runs along the last axis, so
    # the summary is bit for bit what evolve's whole history gives, however
    # the records fall into blocks
    assert experiments.SUMMARY_CHUNK_VALUES // 256 == 16
    grid = make_grid(nx, 2 * np.pi)
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=dt, t_final=t_final, grid=grid)
    phi = initial_field(grid, "gaussian:a=1,sigma=0.5")
    times, masses, energies, peaks, last = experiments.summarize_records(phi, cfg)
    traj = evolve(phi, cfg)
    u = physical_values(traj)
    assert np.array_equal(times, traj.times)
    assert np.array_equal(masses, mass(traj))
    assert np.array_equal(energies, energy(traj, 1.5, 1.0))
    assert np.array_equal(peaks, np.max(np.abs(u), axis=-1))
    assert np.array_equal(last, u[-1])


@pytest.mark.parametrize("nx, length, dt, t_final", [
    (256, 2 * np.pi, 1e-3, 0.64),  # 641 records in blocks of 16
    (4096, 512.0, 1e-2, 30.0),  # 3,001 records in blocks of one
    (2**16, 100.0, 1e-4, 0.0012),  # 13 records in blocks of one
], ids=["nx256", "nx4096", "nx65536"])
def test_record_summary_prediction_bounds_its_peak(monkeypatch, nx, length, dt, t_final):
    # the call's one admission prices the stepping, the blocks and the
    # columns, made once, so a record costs the same at every nx (kept as a
    # block's own small arrays, it cost 586 B at nx = 4,096 against 104 B
    # priced); the prediction is 1.14x the peak at nx = 256, 1.26x at 4,096
    # and 1.24x at 2^16, where a block's work costs 1.5 fields (tracemalloc,
    # numpy 2.4)
    predicted = []

    def admit(what, remedy, nbytes, work):
        predicted.append(nbytes)
        spectral.admit(what, remedy, nbytes, work)

    monkeypatch.setattr(evolution, "admit", admit)
    grid = make_grid(nx, length)
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=dt, t_final=t_final, grid=grid)
    phi = initial_field(grid, "gaussian:a=1,sigma=0.5")
    tracemalloc.start()
    try:
        experiments.summarize_records(phi, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [nbytes] = predicted
    assert peak <= nbytes <= 1.5 * peak


def test_scan_remainder_small():
    res = scan_remainder(1.5, [16, 32, 64, 128], xi_max=0.5)
    assert res.bound_ok
    assert res.scan.fitted_slope == pytest.approx(-0.75, abs=0.1)


def test_scan_trilinear_small():
    scan = scan_trilinear(1.5, 0.0, 0.51, [16, 32, 64, 128])
    assert scan.factors[0].fitted_slope == pytest.approx(0.125, abs=0.15)
    assert scan.ratio.fitted_slope == pytest.approx(0.25, abs=0.15)
    # u3 is u1's box: the plus box is fitted once and serves both
    assert scan.factors[2] is scan.factors[0]


def test_scan_trilinear_needs_four_points():
    with pytest.raises(ValidationError):
        scan_trilinear(1.5, 0.0, 0.51, [16, 32, 64])


def test_scan_trilinear_rejects_a_lattice_over_the_memory_limit(monkeypatch):
    # a box's (tau, xi) lattice is admitted at 9 bytes a cell, the dense
    # box's price: at alpha = 1.5, N = 2^26 needs 1.33e8 cells, and the box
    # sizes alone reject it, before any box is built
    def no_box(spec):
        raise AssertionError("box built")

    monkeypatch.setattr(experiments, "box_data", no_box)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"box lattice of 1.33e\+08 \(tau, xi\) cells: "):
            scan_trilinear(1.5, 0.0, 0.51, [2**j for j in range(4, 27)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the first rejected N is the dense box's: 2^26 at alpha 1.5 (2^25 needs
    # 7.9e7 cells) and 2^20 at alpha 1.9 (1.20e8 cells; 2^19 needs 6.2e7);
    # the N below each passes the check and reaches the boxes
    for alpha, j in ((1.5, 26), (1.9, 20)):
        with pytest.raises(ValidationError, match="exceed the 1024 MiB"):
            scan_trilinear(alpha, 0.0, 0.51, [16, 32, 64, 2**j])
        with pytest.raises(AssertionError, match="box built"):
            scan_trilinear(alpha, 0.0, 0.51, [16, 32, 64, 2 ** (j - 1)])
    # a budget of exactly 9 bytes a cell of N = 2^6's larger lattice passes,
    # one byte less raises
    cells = 16 * max(BoxSpec(64.0, 1.5, conj).tau_samples for conj in (False, True))
    monkeypatch.setattr(spectral, "MEMORY_BUDGET", 9 * cells)
    with pytest.raises(AssertionError, match="box built"):
        scan_trilinear(1.5, 0.0, 0.51, [16, 32, 64, 64])
    monkeypatch.setattr(spectral, "MEMORY_BUDGET", 9 * cells - 1)
    with pytest.raises(ValidationError, match=f"N = 64's box lattice of {cells} "):
        scan_trilinear(1.5, 0.0, 0.51, [16, 32, 64, 64])


# each scan evaluates all its points as one stack: every point's numbers
# equal that point run alone, as a stack of one, and do not depend on the
# other points or their order; an entry that read a neighbour's offset,
# width or lattice would differ from its stack of one

def _scan_points(scan):
    return dict(scan.points)


def _padded(stack) -> bool:
    """Whether some entry of the stack is padded: their widths differ."""
    widths = {np.flatnonzero(np.any(v, axis=-1)).max() + 1 for v in stack.values}
    return len(widths) > 1


def test_trilinear_stack_entries_equal_each_point_alone():
    alpha, n_list = 1.5, [2.0**j for j in range(4, 14)]

    def stacks(ns):
        plus = box_data([BoxSpec(n, alpha) for n in ns])
        minus = box_data([BoxSpec(n, alpha, conjugate=True) for n in ns])
        conv = trilinear_convolution(plus, minus, plus)
        norms = (xsb_norm(conv, 0.3, -0.49, alpha, "-"), xsb_norm(plus, 0.3, 0.51, alpha, "-"),
                 xsb_norm(minus, 0.3, 0.51, alpha, "+"))
        return (plus, minus, conv), norms

    fields, norms = stacks(n_list)
    assert _padded(fields[2])
    for i, n in enumerate(n_list):
        alone, alone_norms = stacks([n])
        for stack, one in zip(fields, alone):
            # the counts and their lattice exactly; the stack's padding rows are zero
            rows = one.values.shape[-2]
            assert np.array_equal(stack.values[i, :rows], one.values[0])
            assert not np.any(stack.values[i, rows:])
            assert np.array_equal(stack.first[i], one.first[0])
            assert np.array_equal(stack.xi[i], one.xi[0])
            assert (stack.tau0[i], stack.dtau[i], stack.n_tau[i]) == (
                one.tau0[0], one.dtau[0], one.n_tau[0])
        for norm, one in zip(norms, alone_norms):
            assert norm[i] == one[0]
    # a single box and its convolution are the stack of one without its axis
    plus, minus = box_data(BoxSpec(64.0, alpha)), box_data(BoxSpec(64.0, alpha, True))
    conv = trilinear_convolution(plus, minus, plus)
    alone = stacks([64.0])[0]
    for single, one in zip((plus, minus, conv), alone):
        assert np.array_equal(single.values, one.values[0]) and single.n_tau == one.n_tau[0]
        assert np.array_equal(single.first, one.first[0]) and single.tau0 == one.tau0[0]


def test_scan_points_do_not_depend_on_their_neighbours():
    # the same N (M) in another list, in another order, gives the same
    # numbers bit for bit
    short, mixed = [16, 32, 64, 128], [256, 128, 2**13, 16, 64, 32]
    a, b = scan_trilinear(1.5, 0.2, 0.51, short), scan_trilinear(1.5, 0.2, 0.51, mixed)
    for fit_a, fit_b in zip((a.ratio, a.numerator, *a.factors), (b.ratio, b.numerator, *b.factors)):
        assert set(_scan_points(fit_a).items()) <= set(_scan_points(fit_b).items())
    a, b = scan_remainder(1.8, short, xi_max=0.7), scan_remainder(1.8, mixed, xi_max=0.7)
    assert set(_scan_points(a.scan).items()) <= set(_scan_points(b.scan).items())
    a, b = scan_wavepacket([-0.25, 0.3], short), scan_wavepacket([-0.25, 0.3], mixed)
    for s in a:
        assert set(_scan_points(a[s]).items()) <= set(_scan_points(b[s]).items())


def test_remainder_stack_rows_equal_each_n_alone():
    xi = np.linspace(-0.5, 0.5, experiments.REMAINDER_SAMPLES)
    ns = np.array([2.0**j for j in range(4, 11)] + [1e6])
    for alpha in (1.2, 1.5, 1.8):
        rows = remainder_symbol(alpha, ns[:, None], xi)
        assert rows.shape == (ns.size, xi.size)
        for n, row in zip(ns, rows):
            assert np.array_equal(row, remainder_symbol(alpha, np.array([[n]]), xi)[0])
            assert np.array_equal(row, remainder_symbol(alpha, n, xi))
        # one N at one xi is a float
        assert isinstance(remainder_symbol(alpha, 64.0, 0.25), float)


def test_wavepacket_stack_rows_equal_each_packet_alone():
    grid = wavepacket_grid(0.0, 1.0)
    carriers = [2.0**j for j in range(4, 15)] + [100.3, 1000.0 / 3.0]  # two off the lattice
    specs = [WavepacketSpec(1.7, m, 1.0, 0.5 * grid.length) for m in carriers]
    bands, modes = modulated_wavepacket(specs, grid)
    assert bands.shape == (len(specs), grid.nx) and modes.shape == (len(specs),)
    for spec, band, mode in zip(specs, bands, modes):
        alone, [alone_mode] = modulated_wavepacket([spec], grid)
        assert np.array_equal(band, alone[0]) and mode == alone_mode
        assert mode == round(spec.carrier / grid.dk)


def test_scan_trilinear_peak_stays_under_the_point_by_point_scan():
    # the scan holds two box stacks (41 KiB) and the convolutions' stack
    # (194 KiB at N = 2^4..2^13), counts one box triple at a time and
    # weighs one entry at a time: 410 KB measured, under the 424,313 B
    # tracemalloc peak of the point-by-point scan it replaced (numpy 2.4.6,
    # Python 3.11).  Convolving the whole stack at once holds every
    # triple's points together, 2.6 MB and more
    n_list = [2**j for j in range(4, 14)]
    scan_trilinear(1.5, 0.0, 0.51, n_list)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        scan_trilinear(1.5, 0.0, 0.51, n_list)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 424_313


def test_scan_stacks_are_admitted_before_they_are_built(monkeypatch):
    # a stack grows with its points: the remainder's symbols are admitted at
    # 100 B a (carrier, sample) cell and the packets at 56 B a (carrier,
    # mode) cell, each prediction within 1.5 times the scan's peak at two
    # sizes; the admitted dyadic N bound the trilinear stacks, where a
    # repeated N, which the fit rejects, is built once
    predicted = []
    admit = experiments.admit

    def spy(what, remedy, nbytes, work):
        predicted.append(nbytes)
        admit(what, remedy, nbytes, work)

    monkeypatch.setattr(experiments, "admit", spy)
    for scan in (lambda ns: scan_remainder(1.5, ns), lambda ns: scan_wavepacket([0.0, 0.5], ns)):
        for k in (50, 500):
            predicted.clear()
            tracemalloc.start()
            try:
                scan(list(np.linspace(16.0, 1e4, k)))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= predicted[-1] <= 1.5 * peak
    monkeypatch.setattr(spectral, "MEMORY_BUDGET", 2**20)
    with pytest.raises(ValidationError, match="14 carriers' symbols at 800 samples: .*; give fewer N"):
        scan_remainder(1.5, list(range(16, 30)))
    with pytest.raises(ValidationError, match="37 packets of 512 modes: .*; give fewer M"):
        scan_wavepacket([0.0], list(range(16, 53)))
    boxes = []
    box_data_ = experiments.box_data
    monkeypatch.setattr(experiments, "box_data", lambda specs: boxes.append(specs) or box_data_(specs))
    with pytest.raises(ValidationError, match="needs distinct N values: N = 16 repeats"):
        scan_trilinear(1.5, 0.0, 0.51, [16, 32, 16, 64, 16, 16])
    assert [[spec.n for spec in band] for band in boxes] == [[16, 32, 64]] * 2


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


def test_wavepacket_grid_over_memory_limit_is_rejected_before_allocation(monkeypatch):
    # the rounded grid is admitted at make_grid's rate, one stepping row of
    # STEP_FIELDS fields: 2^22 points fit MEMORY_BUDGET and 2^23 do not, so
    # a carrier just past the one that needs 2^22 is rejected by the packet
    # grid, naming tau_scale and m, not by make_grid
    monkeypatch.setattr(experiments, "make_grid", lambda nx, length: nx)
    edge = (2**22 * np.pi / 64.0 - 16.0) / 1.5
    assert wavepacket_grid(edge * (1 - 1e-12), 1.0) == 2**22
    with pytest.raises(ValidationError, match="grid at tau_scale = 1 and m = 137248: 1152 MiB"):
        wavepacket_grid(edge * (1 + 1e-12), 1.0)
    with pytest.raises(ValidationError, match="grid at tau_scale = 1e-300 and m = 16: "):
        wavepacket_grid(16.0, 1e-300)


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
    grid = make_grid(512, 1200.0)
    eps, delta, sigma = 0.64, 0.0064, 16.0
    p1, p2 = _proportional_pair(grid, eps, delta, sigma)
    assert sobolev_norm(p1, 0.0) == pytest.approx(eps, rel=1e-12)
    cfg = SimConfig(alpha=2.0, gamma=1.0, dt=0.1, t_final=360.0, grid=grid, record_every=360)
    records = evolve_records([(p1, cfg), (p2, cfg)])
    seps = [sobolev_norm(Field(grid, coeffs[0] - coeffs[1]), 0.0) for _, coeffs in records]
    assert seps[0] == pytest.approx(delta, rel=0.01)
    assert max(seps) >= 10.0 * seps[0]


def test_illposedness_demo_range_check(monkeypatch):
    # bad inputs are rejected before any work: no grid is built, nothing is
    # lifted or evolved (sigma = 0 used to step on a nan envelope)
    monkeypatch.setattr(experiments, "make_grid", None)
    monkeypatch.setattr(experiments, "approximate_solution", None)
    monkeypatch.setattr(experiments, "evolve_records", None)
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
    # a carrier below 1 would take the zoom factor below 1
    for n_carrier in (0.5, 1e-300):
        with pytest.raises(ValidationError, match=f"must be >= 1, got {n_carrier:g}"):
            run_illposedness_demo(
                alpha=1.5, s=0.0, epsilon=0.5, delta=0.005, t_internal=1.0, n_carrier=n_carrier,
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


def test_illposedness_demo_builds_its_runs_once(monkeypatch):
    # the runs built at the ladder's smallest dt give the symbol peak that
    # picks dt, and their configs are re-made there: one build, not two
    build, calls = experiments._modulated_runs, []

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(experiments, "_modulated_runs", counted)
    monkeypatch.setattr(experiments, "ILLPOSED_RECORD_INTERVAL", 4.0)
    rep = run_illposedness_demo(
        alpha=1.5, s=0.0, epsilon=0.4, delta=0.004, t_internal=8.0, n_carrier=16.0,
    )
    assert len(calls) == 1
    assert (rep["dt"], rep["record_every"]) == (0.2, 20)


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_modulated_pipelines_keep_their_runs_on_the_carrier_band():
    # images, runs, differences and the zoomed pair are 512-mode rows, and
    # each record is reduced as it is stepped, so the peak does not grow
    # with the window.  Whole-grid ones of 2048 columns (gate 7) and 8192
    # (gate 8) peaked at 8.9 and 5.8 MiB; with a (runs, records, 512)
    # history, gate 7 peaked at 2.52 and 8.97 MiB at t_final 0.25 and 1,
    # and gate 8 at 0.67 and 1.11 MiB at t_internal 300 and 600; without
    # one, 0.76 and 0.42 MiB at every window (tracemalloc, numpy 2.4)
    def gate_7(t_final):
        return _peak_bytes(
            lambda: experiments.run_approximation_error(1.5, [8, 16, 32, 64], t_final=t_final)
        )

    def gate_8(t_internal):
        return _peak_bytes(lambda: run_illposedness_demo(1.5, 0.0, 0.5, 0.005, t_internal, 16.0))

    short, long = gate_7(0.25), gate_7(1.0)
    assert long < 2**20 and long <= 1.05 * short
    short, long = gate_8(300.0), gate_8(600.0)
    assert long < 2**20 and long <= 1.05 * short


def _dense_image(v_traj, n, alpha, grid) -> np.ndarray:
    """The modulated image of v_traj in the packet's rest frame on the whole
    of grid, mode m_N + m for v mode m, built as one (records, grid.nx)
    array."""
    v_grid, t = v_traj.grid, v_traj.times[:, None]
    idx = (round(n / grid.dk) + np.round(v_grid.k / v_grid.dk).astype(int)) % grid.nx
    out = np.zeros((t.size, grid.nx), dtype=np.complex128)
    out[:, idx] = envelope_scale(alpha, n) * v_traj.values
    out *= np.exp(1j * (n**alpha - n * group_velocity(alpha, n)) * t)
    return out


def _keep_trajectories(monkeypatch) -> list:
    """Each batch's trajectories (oracles.history) as the pipelines step it,
    appended to the list returned."""
    batches = []

    def keep(runs, **costs):
        batches.append(history(runs))
        return evolve_records(runs, **costs)

    monkeypatch.setattr(experiments, "evolve_records", keep)
    return batches


def test_band_pipelines_match_whole_grid_arithmetic(monkeypatch):
    # gate 7's tracked errors and gate 8's report, rebuilt from the same runs
    # with every image, run and difference on the whole grid: 2048 and 4096
    # points, and 8192 after gate 8's zoom
    batches = _keep_trajectories(monkeypatch)
    alpha, s_track = 1.5, 0.125
    scan = experiments.run_approximation_error(alpha, [8, 16, 32, 64])
    for n, v, w in zip(scan.errors, batches[0][::2], batches[0][1::2]):
        grid = make_grid(2048, w.grid.length)
        diff = scatter(w, grid) - _dense_image(v, n, alpha, grid)
        want = np.max(sobolev_norm(Trajectory(w.times, grid, diff), s_track))
        assert scan.errors[n] == pytest.approx(want, rel=1e-14, abs=0)

    rep = run_illposedness_demo(alpha, 0.0, 0.5, 0.005, 600.0, 16.0)
    n, lam, length = rep["n_carrier"], rep["lambda"], rep["length"]
    grid = make_grid(4096, length)
    v1, v2, w1, w2 = batches[1]
    for v, w, key in ((v1, w1, "approx_error_sup_1"), (v2, w2, "approx_error_sup_2")):
        diff = scatter(w, grid) - _dense_image(v, n, alpha, grid)
        want = np.max(sobolev_norm(Trajectory(w.times, grid, diff), s_track))
        assert rep[key] == pytest.approx(want, rel=1e-14, abs=0)
    # the zoom keeps every coefficient: mode m of the torus is mode lam m of
    # the lam-times shorter one, on twice as many points
    wide, target = make_grid(2 * grid.nx, length), make_grid(2 * grid.nx, length / lam)
    u1, u2 = (Trajectory(w1.times, target, scatter(w, wide)) for w in (w1, w2))
    sep = sobolev_norm(_difference(u1, u2), 0.0)
    want = {
        "data_norm_1": sobolev_norm(u1.states[0], 0.0),
        "data_norm_2": sobolev_norm(u2.states[0], 0.0),
        "data_separation": sep[0],
        "solution_separation_max": np.max(sep),
        "amplification": np.max(sep) / sep[0],
    }
    assert {key: rep[key] for key in want} == pytest.approx(want, rel=1e-14, abs=0)
    assert rep["t_of_max"] == w1.times[np.argmax(sep)] * lam ** (-alpha)


def test_record_reductions_equal_whole_trajectory_arithmetic(monkeypatch):
    # what each pipeline reduces record by record is, bit for bit, what the
    # whole trajectories give: images (approximate_solution), their
    # distances' sup, and gate 8's zoomed separation, data norms and first
    # argmax, here at s = 0.1, where the data norm is not conserved
    batches = _keep_trajectories(monkeypatch)
    alpha, s_track = 1.5, 0.125
    scan = experiments.run_approximation_error(alpha, [8, 16, 32, 64], t_final=0.1)
    monkeypatch.setattr(experiments, "ILLPOSED_RECORD_INTERVAL", 8.0)
    s = 0.1
    rep = run_illposedness_demo(alpha, s, 0.5, 0.005, 120.0, 16.0)

    def sup(v, w):
        image = approximate_solution(v, w.grid.carrier, alpha, w.grid.length)
        return float(np.max(sobolev_norm(_difference(w, image), s_track)))

    trajs = batches[0]
    assert scan.errors == {n: sup(v, w) for n, v, w in zip(scan.errors, trajs[::2], trajs[1::2])}
    v1, v2, w1, w2 = batches[1]
    u1, u2 = (rescale_solution(w, rep["lambda"], alpha) for w in (w1, w2))
    sep = sobolev_norm(_difference(u1, u2), s)
    assert sep.size == 16
    i_max = int(np.argmax(sep))
    want = {
        "data_norm_1": sobolev_norm(u1, s)[0],
        "data_norm_2": sobolev_norm(u2, s)[0],
        "data_separation": float(sep[0]),
        "solution_separation_max": float(sep[i_max]),
        "t_of_max": float(u1.times[i_max]),
        "amplification": float(sep[i_max] / sep[0]),
        "approx_error_sup_1": sup(v1, w1),
        "approx_error_sup_2": sup(v2, w2),
    }
    assert {key: rep[key] for key in want} == want
    assert sobolev_norm(u1, s)[-1] != want["data_norm_1"]


def _fed_records(monkeypatch, change) -> None:
    """The pipelines step their batches as usual, but read the records that
    change(list of (t, coefficients) copies) returns."""
    def fed(runs, **costs):
        return change([(t, coeffs.copy()) for t, coeffs in evolve_records(runs, **costs)])

    monkeypatch.setattr(experiments, "evolve_records", fed)


def test_pair_sups_take_every_record_in_any_order(monkeypatch):
    # a sup is over every record: fed in reverse, the records give the same
    # errors, though the last record read is t = 0, where each distance is 0
    args = (1.5, [8, 16, 32, 64], 0.2, 0.1)
    forward = experiments.run_approximation_error(*args)
    _fed_records(monkeypatch, lambda records: records[::-1])
    assert experiments.run_approximation_error(*args).errors == forward.errors


def test_pair_reductions_pick_as_max_and_argmax_do(monkeypatch):
    # gate 8's separation grows to its last record; fed that record again
    # at a later time, the tie goes to the first, as np.argmax's does.  A
    # NaN distance or separation at record 3 is the sup, and its record is
    # the argmax, as np.max and np.argmax would have it
    monkeypatch.setattr(experiments, "ILLPOSED_RECORD_INTERVAL", 8.0)
    args = (1.5, 0.0, 0.5, 0.005, 80.0, 16.0)
    clean = run_illposedness_demo(*args)
    assert clean["t_of_max"] == 80.0 * clean["lambda"] ** -1.5

    def tie_last(records):
        return records + [(records[-1][0] + 8.0, records[-1][1])]

    _fed_records(monkeypatch, tie_last)
    rep = run_illposedness_demo(*args)
    assert (rep["t_of_max"], rep["solution_separation_max"]) == (
        clean["t_of_max"], clean["solution_separation_max"])

    def nan_at_three(records):
        records[3][1][2, 7] = np.nan  # band run w1's coefficients
        return records

    _fed_records(monkeypatch, nan_at_three)
    rep = run_illposedness_demo(*args)
    assert np.isnan(rep["approx_error_sup_1"]) and np.isnan(rep["solution_separation_max"])
    assert rep["approx_error_sup_2"] == clean["approx_error_sup_2"]
    assert rep["t_of_max"] == 3 * 8.0 * rep["lambda"] ** -1.5


def test_pair_resolution_error_names_the_run_at_the_earliest_record(monkeypatch):
    # band-edge mass in carrier 32's envelope (row 4) at record 3 and in
    # carrier 8's (row 0) at record 5: the earlier record raises, whatever
    # the pairs' order, and the error names the envelope's run.  The edge
    # mode holds 3e-8 of the row's mass, over the outer-band limit 1e-8;
    # spread evenly in x, it puts a tenth of that in the domain's outer 10%,
    # under the wrap-around limit, which each record meets first
    def rough(records):
        for index, row in ((3, 4), (5, 0)):
            coeffs = records[index][1][row]
            coeffs[256] += np.sqrt(3e-8 * np.sum(np.abs(coeffs) ** 2))
        return records

    _fed_records(monkeypatch, rough)
    with pytest.raises(ResolutionError, match=(
        r"^run 4 of 8, envelope of alpha 1\.5, carrier 32: envelope solution under-resolved "
        r"at t=0\.03: outer-band mass fraction"
    )):
        experiments.run_approximation_error(1.5, [8, 16, 32, 64], t_final=0.1)


def test_repeated_carriers_are_rejected_before_any_run(monkeypatch):
    monkeypatch.setattr(experiments, "_modulated_runs", None)
    monkeypatch.setattr(experiments, "evolve_records", None)
    with pytest.raises(ValidationError, match="power-law fit needs distinct N values: N = 8 repeats"):
        experiments.run_approximation_error(1.5, [16, 8, 32, 8])


class _Batch(Exception):
    """Stops a pipeline at its evolve_records call, carrying the runs."""


# gate 7, gate 8, and illposed's CLI defaults at four alphas
BAND_DATA_PIPELINES = [
    pytest.param(experiments.run_approximation_error, (1.5, [8, 16, 32, 64]), id="gate7"),
    pytest.param(run_illposedness_demo, (1.5, 0.0, 0.5, 0.005, 600.0, 16.0), id="gate8"),
] + [
    pytest.param(run_illposedness_demo, (alpha, 0.0, 0.5, 0.005, 1200.0, 16.0, 28.0),
                 id=f"illposed-alpha{alpha}")
    for alpha in (1.2, 1.5, 1.7, 1.9)
]


def _batch(monkeypatch, pipeline, args) -> list:
    """The (phi, cfg) runs pipeline(*args) passes to evolve_records."""
    def stop(runs, **costs):
        raise _Batch(runs)

    monkeypatch.setattr(experiments, "evolve_records", stop)
    with pytest.raises(_Batch) as batch:
        pipeline(*args)
    return batch.value.args[0]


@pytest.mark.parametrize("pipeline, args", BAND_DATA_PIPELINES)
def test_band_data_remodulates_to_the_lifted_envelope(monkeypatch, pipeline, args):
    # the fractional run's data on the carrier's band is beta times the
    # envelope's coefficients: it is the modulated image of the envelope at
    # t = 0, on the same carrier grid, bit for bit
    runs = _batch(monkeypatch, pipeline, args)
    envelopes = [phi for phi, cfg in runs if cfg.grid.carrier == 0.0]
    bands = [(w, cfg) for w, cfg in runs if cfg.grid.carrier != 0.0]
    assert len(envelopes) == len(bands) >= 2
    for phi, (w, cfg) in zip(envelopes, bands):
        lifted = approximate_solution(
            Trajectory([0.0], phi.grid, phi.values[None]), w.grid.carrier, cfg.alpha,
            w.grid.length,
        )
        assert lifted.grid == w.grid
        assert np.array_equal(lifted.values[0], w.values)


def test_modulated_batches_run_in_the_rest_frame_and_check_every_tail(monkeypatch):
    # gates 7 and 8: every band run moves with its packet, and every run's
    # wrap-around is checked at each record: any one pushed half a torus,
    # against the boundary, fails the first record, and the error names it
    for gate in BAND_DATA_PIPELINES[:2]:
        pipeline, args = gate.values
        runs = _batch(monkeypatch, pipeline, args)
        monkeypatch.undo()
        bands = [cfg for _, cfg in runs if cfg.grid.carrier != 0.0]
        assert len(bands) == len(runs) // 2
        for cfg in bands:
            assert cfg.frame_velocity == -group_velocity(cfg.alpha, cfg.grid.carrier)
        for row, (phi, cfg) in enumerate(runs):
            pushed = list(runs)
            shifted = np.roll(physical_values(phi), phi.grid.nx // 2)
            pushed[row] = (Field.physical(phi.grid, shifted), cfg)
            with pytest.raises(WrapAroundError, match=(
                rf"^run {row} of {len(runs)}, alpha {cfg.alpha:g}, carrier "
                rf"{cfg.grid.carrier:g}: tail mass fraction .* at t=0 exceeds"
            )):
                next(experiments._evolve_pairs(pushed, args[0], "lower t_final"))


def test_illposedness_zero_delta_gives_identical_pair(monkeypatch):
    runs = _batch(monkeypatch, run_illposedness_demo, (1.5, 0.0, 0.3, 0.0, 600.0, 16.0))
    (p1, _), (p2, _), (w1, _), (w2, _) = runs
    assert np.array_equal(p1.values, p2.values)
    assert np.array_equal(w1.values, w2.values)
