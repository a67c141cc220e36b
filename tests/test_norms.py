import numpy as np
import pytest

from fnls.errors import ValidationError
from fnls.spectral import Field, make_grid
from fnls.norms import (
    SpaceTimeField,
    energy,
    mass,
    raised_cosine_window,
    smooth_bump_window,
    sobolev_norm,
    window_trajectory,
    xsb_norm,
)
from fnls.evolution import Trajectory


@pytest.fixture
def circle():
    return make_grid(64, 2 * np.pi)


def test_mass_single_mode(circle):
    f = Field.physical(circle, np.exp(1j * 2 * circle.x))
    assert mass(f) == pytest.approx(2 * np.pi, rel=1e-13)
    assert mass(Field.physical(circle, np.zeros(64))) == 0.0


def test_mass_parseval(circle):
    rng = np.random.default_rng(0)
    u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    f = Field.physical(circle, u)
    assert mass(f) == pytest.approx(circle.dx * np.sum(np.abs(u) ** 2), rel=1e-12)


def test_energy_linear_part_single_mode(circle):
    for k, alpha in ((1.0, 1.5), (2.0, 1.2), (3.0, 2.0)):
        f = Field.physical(circle, np.exp(1j * k * circle.x))
        assert energy(f, alpha, 0.0) == pytest.approx(
            np.pi * abs(k) ** alpha, rel=1e-12
        )


def test_energy_quartic_sign_is_the_conserved_one(circle):
    # for e^{ix}: kinetic pi, quartic gamma*pi/2; the conserved functional
    # subtracts the quartic term (see decisions ledger)
    f = Field.physical(circle, np.exp(1j * circle.x))
    assert energy(f, 1.5, 1.0) == pytest.approx(np.pi - np.pi / 2, rel=1e-12)
    assert energy(f, 1.5, -1.0) == pytest.approx(np.pi + np.pi / 2, rel=1e-12)


def test_sobolev_norm_values(circle):
    f = Field.physical(circle, np.exp(1j * 3 * circle.x))
    assert sobolev_norm(f, 0.0) == pytest.approx(np.sqrt(mass(f)), rel=1e-12)
    for s in (-0.5, 0.25, 1.0):
        assert sobolev_norm(f, s) == pytest.approx(
            (1 + 9) ** (s / 2) * np.sqrt(2 * np.pi), rel=1e-12
        )


def test_sobolev_monotone_in_s(circle):
    rng = np.random.default_rng(1)
    u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    f = Field.physical(circle, u)
    svals = np.linspace(-1, 1.5, 11)
    norms = [sobolev_norm(f, s) for s in svals]
    assert np.all(np.diff(norms) >= 0)


def test_space_time_field_validation():
    with pytest.raises(ValidationError):
        SpaceTimeField(np.array([0.0, 1.0, 2.5]), np.array([0.0, 1.0]), np.zeros((3, 2)))
    with pytest.raises(ValidationError):
        SpaceTimeField(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.zeros((3, 2)))


def test_xsb_single_delta():
    tau = np.arange(-4.0, 4.0, 0.5)
    xi = np.arange(-8.0, 8.0, 1.0)
    vals = np.zeros((tau.size, xi.size), dtype=complex)
    it, ix = 5, 11
    vals[it, ix] = 2.5
    f = SpaceTimeField(tau, xi, vals)
    alpha, s, b = 1.5, 0.3, 0.51
    expect = (
        2.5
        * (1 + abs(xi[ix])) ** s
        * (1 + abs(tau[it] - abs(xi[ix]) ** alpha)) ** b
        * np.sqrt(0.5 * 1.0)
    )
    assert xsb_norm(f, s, b, alpha, "-") == pytest.approx(expect, rel=1e-12)


def test_xsb_zero_weights_is_lattice_l2():
    rng = np.random.default_rng(2)
    tau = np.linspace(0, 3, 16)
    xi = np.linspace(-2, 2, 9)
    vals = rng.standard_normal((16, 9)) + 1j * rng.standard_normal((16, 9))
    f = SpaceTimeField(tau, xi, vals)
    cell = (tau[1] - tau[0]) * (xi[1] - xi[0])
    assert xsb_norm(f, 0.0, 0.0, 1.5, "-") == pytest.approx(
        np.linalg.norm(vals) * np.sqrt(cell), rel=1e-12
    )
    assert xsb_norm(f, 0.0, 0.0, 1.5, "+") == xsb_norm(f, 0.0, 0.0, 1.5, "-")


def test_xsb_sign_conventions():
    tau = np.arange(-40.0, 40.0, 0.5)
    xi = np.arange(-8.0, 8.5, 1.0)
    vals = np.zeros((tau.size, xi.size), dtype=complex)
    ix = int(np.argmin(np.abs(xi - 6.0)))
    it = int(np.argmin(np.abs(tau - 6.0**1.5)))
    vals[it, ix] = 1.0
    f = SpaceTimeField(tau, xi, vals)
    # point on tau = +|xi|^alpha: small '-' weight, large '+' weight
    assert xsb_norm(f, 0.0, 1.0, 1.5, "-") < 0.1 * xsb_norm(f, 0.0, 1.0, 1.5, "+")


def _free_mode_trajectory(k=2.0, alpha=1.5, n_t=64, dt_rec=0.2):
    grid = make_grid(64, 2 * np.pi)
    times = dt_rec * np.arange(n_t)
    states = [
        Field.physical(grid, np.exp(1j * (k * grid.x + abs(k) ** alpha * t)))
        for t in times
    ]
    return Trajectory(times, states)


def test_window_zero_trajectory():
    grid = make_grid(32, 1.0)
    times = 0.1 * np.arange(8)
    states = [Field.physical(grid, np.zeros(32)) for _ in times]
    f = window_trajectory(Trajectory(times, states))
    assert np.all(f.values == 0)


def test_window_free_mode_concentrates_on_dispersion_line():
    k, alpha = 2.0, 1.5
    traj = _free_mode_trajectory(k=k, alpha=alpha)
    f = window_trajectory(traj, "raised_cosine")
    power = np.abs(f.values) ** 2
    # all energy in the carrier column
    ix = int(np.argmin(np.abs(f.xi - k)))
    col = power[:, ix].sum()
    assert col >= 0.999 * power.sum()
    # off-line leakage: outside |tau - |k|^alpha| <= 4 dtau
    omega = abs(k) ** alpha
    near = np.abs(f.tau - omega) <= 4 * f.dtau + 1e-12
    assert power[near, ix].sum() >= 0.95 * col


def test_window_identity_gives_exact_tone():
    # periodic-in-time signal + no window = exact delta in tau
    grid = make_grid(32, 2 * np.pi)
    n_t, dt_rec = 32, 0.25
    span = n_t * dt_rec
    omega = 2 * np.pi / span * 4  # on the tau lattice
    times = dt_rec * np.arange(n_t)
    states = [
        Field.physical(grid, np.exp(1j * (3 * grid.x + omega * t))) for t in times
    ]
    f = window_trajectory(Trajectory(times, states), "none")
    power = np.abs(f.values) ** 2
    it = int(np.argmin(np.abs(f.tau - omega)))
    ix = int(np.argmin(np.abs(f.xi - 3.0)))
    assert power[it, ix] >= (1 - 1e-12) * power.sum()


def test_window_matches_direct_dft():
    rng = np.random.default_rng(3)
    grid = make_grid(16, 3.0)
    n_t, dt_rec = 16, 0.1
    times = dt_rec * np.arange(n_t)
    u = rng.standard_normal((n_t, 16)) + 1j * rng.standard_normal((n_t, 16))
    states = [Field.physical(grid, u[j]) for j in range(n_t)]
    f = window_trajectory(Trajectory(times, states), "raised_cosine")
    psi = raised_cosine_window(n_t)
    # direct double sum at a few lattice points
    for it, ix in ((3, 5), (8, 0), (15, 15)):
        direct = dt_rec * grid.dx * np.sum(
            (psi[:, None] * u)
            * np.exp(-1j * (f.tau[it] * times[:, None] + f.xi[ix] * grid.x[None, :]))
        )
        assert f.values[it, ix] == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_window_stability_between_admissible_windows():
    traj = _free_mode_trajectory()
    a = xsb_norm(window_trajectory(traj, "raised_cosine"), 0.3, 0.0, 1.5, "-")
    b = xsb_norm(window_trajectory(traj, "smooth_bump"), 0.3, 0.0, 1.5, "-")
    assert abs(a - b) <= 0.1 * max(a, b)


def test_windows_are_one_on_middle_half():
    for win in (raised_cosine_window, smooth_bump_window):
        w = win(64)
        assert np.all(w[16:48] == 1.0)
        assert w[0] <= 1e-10
        assert np.all((0.0 <= w) & (w <= 1.0))


def test_window_requires_enough_records():
    grid = make_grid(32, 1.0)
    times = 0.1 * np.arange(4)
    states = [Field.physical(grid, np.zeros(32)) for _ in times]
    with pytest.raises(ValidationError):
        window_trajectory(Trajectory(times, states))
