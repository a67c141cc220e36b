import numpy as np
import pytest

from fnls.errors import ValidationError
from fnls.evolution import SimConfig, evolve
from fnls.experiments import initial_field
from fnls.spectral import Field, make_grid
from fnls.norms import (
    SpaceTimeField,
    energy,
    mass,
    sobolev_norm,
    xsb_norm,
)

import oracles


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


def test_trajectory_norms_are_the_per_state_norms_bit_for_bit():
    # reduced along the last axis of the (records, nx) array, each record's
    # norm has the bits of the per-state formula
    grid = make_grid(1024, 2 * np.pi)
    cfg = SimConfig(alpha=1.5, gamma=1.0, dt=1e-3, t_final=0.02, grid=grid, record_every=2)
    traj = evolve(initial_field(grid, "gaussian:a=1,sigma=0.5,k=3"), cfg)
    assert traj.values.shape == (11, 1024)
    assert np.array_equal(mass(traj), [mass(f) for f in traj.states])
    assert np.array_equal(energy(traj, 1.5, 1.0), [energy(f, 1.5, 1.0) for f in traj.states])
    for s in (-0.25, 0.0, 0.5):
        per_state = [
            np.sqrt(np.sum((1.0 + grid.k**2) ** s * np.abs(v) ** 2) / grid.length)
            for v in traj.values
        ]
        assert np.array_equal(sobolev_norm(traj, s), per_state)
        assert np.array_equal(sobolev_norm(traj, s), [sobolev_norm(f, s) for f in traj.states])
    assert isinstance(mass(traj.states[0]), float)


def _field(tau, xi, first, vals):
    """A field on the uniform tau lattice whose nodes are tau."""
    return SpaceTimeField(tau[0], tau[1] - tau[0], tau.size, xi, first, vals)


def _dense_field(tau, xi, vals):
    return _field(tau, xi, np.zeros(xi.size, dtype=int), vals)


def test_space_time_field_validation():
    tau, xi = np.arange(3.0), np.array([0.0, 1.0])
    first0 = np.zeros(2, dtype=int)
    # the tau lattice: finite tau0, a positive finite step, >= 2 nodes
    for tau0, dtau, n_tau in ((np.nan, 1.0, 3), (0.0, 0.0, 3), (0.0, -1.0, 3), (0.0, np.inf, 3),
                              (0.0, 1.0, 1)):
        with pytest.raises(ValidationError, match="tau lattice"):
            SpaceTimeField(tau0, dtau, n_tau, xi, first0, np.zeros((1, 2)))
    with pytest.raises(ValidationError):
        _dense_field(tau, np.array([0.0, 1.0, 2.5]), np.zeros((3, 3)))
    with pytest.raises(ValidationError):
        _dense_field(tau[:2], xi, np.zeros((3, 2)))
    for vals in (np.zeros((3, 3)), np.zeros(2)):
        with pytest.raises(ValidationError, match="do not fit xi"):
            _dense_field(tau, xi, vals)
    # first: one integer row per column, and every stored row on the lattice
    for first, rows, message in (
        (np.zeros(3, dtype=int), 1, "do not fit xi"),  # wrong shape
        (np.zeros((2, 1), dtype=int), 1, "do not fit xi"),  # wrong shape
        (np.zeros(2), 1, "integer rows"),  # not integers
        (np.array([0, 2]), 2, "every stored row on tau"),  # rows 2 and 3 of column 1
        (np.array([-1, 0]), 1, "every stored row on tau"),  # row -1 of column 0
    ):
        with pytest.raises(ValidationError, match=message):
            _field(tau, xi, first, np.ones((rows, 2)))
    band = _field(tau, xi, np.array([0, 2]), np.ones((1, 2)))
    assert band.first.dtype == np.intp and not band.first.flags.writeable
    # the tau nodes are the lattice formula, built on demand
    assert np.array_equal(band.tau, tau) and (band.tau0, band.dtau, band.n_tau) == (0.0, 1.0, 3)


def test_xsb_single_delta():
    tau = np.arange(-4.0, 4.0, 0.5)
    xi = np.arange(-8.0, 8.0, 1.0)
    vals = np.zeros((tau.size, xi.size), dtype=complex)
    it, ix = 5, 11
    vals[it, ix] = 2.5
    f = _dense_field(tau, xi, vals)
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
    f = _dense_field(tau, xi, vals)
    cell = (tau[1] - tau[0]) * (xi[1] - xi[0])
    assert xsb_norm(f, 0.0, 0.0, 1.5, "-") == pytest.approx(
        np.linalg.norm(vals) * np.sqrt(cell), rel=1e-12
    )
    assert xsb_norm(f, 0.0, 0.0, 1.5, "+") == xsb_norm(f, 0.0, 0.0, 1.5, "-")


def _dense_xsb(f, s, b, alpha, sign):
    """Every cell of the whole lattice weighed, zeros included."""
    disp = np.abs(f.xi) ** alpha
    modulation = f.tau[:, None] + (-disp if sign == "-" else disp)[None, :]
    weight = (1.0 + np.abs(f.xi)) ** (2.0 * s) * (1.0 + np.abs(modulation)) ** (2.0 * b)
    return np.sqrt(np.sum(weight * np.abs(oracles.dense(f)) ** 2) * f.cell)


def test_xsb_weighs_nonzero_cells_as_the_dense_formula():
    rng = np.random.default_rng(5)
    tau = np.linspace(-30.0, 30.0, 61)
    xi = np.linspace(-8.0, 8.0, 17)
    dense = rng.standard_normal((61, 17)) + 1j * rng.standard_normal((61, 17))
    sparse = np.where(rng.random((61, 17)) < 0.02, dense, 0.0)
    real_sparse = np.where(rng.random((61, 17)) < 0.02, 1.0, 0.0)
    # a band: each column's 5 values from its own first row, zeros elsewhere
    first = rng.integers(0, 61 - 5, 17)
    band = _field(tau, xi, first, dense[:5])
    for f in [_dense_field(tau, xi, vals) for vals in (dense, sparse, real_sparse)] + [band]:
        for s, b, sign in ((0.0, 0.0, "-"), (0.3, 0.51, "-"), (-0.2, -0.49, "+")):
            got = xsb_norm(f, s, b, 1.5, sign)
            assert got == pytest.approx(_dense_xsb(f, s, b, 1.5, sign), rel=1e-14)
    assert xsb_norm(_dense_field(tau, xi, np.zeros((61, 17))), 0.3, 0.51, 1.5, "-") == 0.0


def test_xsb_sign_conventions():
    tau = np.arange(-40.0, 40.0, 0.5)
    xi = np.arange(-8.0, 8.5, 1.0)
    vals = np.zeros((tau.size, xi.size), dtype=complex)
    ix = int(np.argmin(np.abs(xi - 6.0)))
    it = int(np.argmin(np.abs(tau - 6.0**1.5)))
    vals[it, ix] = 1.0
    f = _dense_field(tau, xi, vals)
    # point on tau = +|xi|^alpha: small '-' weight, large '+' weight
    assert xsb_norm(f, 0.0, 1.0, 1.5, "-") < 0.1 * xsb_norm(f, 0.0, 1.0, 1.5, "+")
