import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import fnls
import fnls.evolution as evolution
import fnls.spectral as spectral
from fnls.cli import _float_list, build_parser, main
from fnls.experiments import initial_field
from fnls.spectral import Field, make_grid


def _read(path):
    return path.read_text().splitlines()


def test_evolve_plane_wave_csv_and_state(tmp_path):
    out = tmp_path / "traj.csv"
    state = tmp_path / "state.csv"
    rc = main(
        [
            "evolve", "--alpha", "1.5", "--gamma", "1", "--nx", "256",
            "--length", "6.283185307179586", "--dt", "1e-3", "--t-final", "0.2",
            "--init", "plane:a=0.1,k=2", "--record-every", "50",
            "--out", str(out), "--dump-state", str(state),
        ]
    )
    assert rc == 0
    lines = _read(out)
    assert lines[0].startswith("# fnls 0.1.0 evolve")
    header_end = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_end] == "parameter,value,aux1,aux2"
    rows = [l.split(",") for l in lines[header_end + 1 :]]
    masses = np.array([float(r[1]) for r in rows])
    # plane-wave mass is a^2 L, preserved exactly
    assert np.allclose(masses, 0.01 * 6.283185307179586, rtol=1e-10)

    # the dumped final state matches the closed-form plane wave
    slines = _read(state)
    data = np.array(
        [[float(v) for v in l.split(",")] for l in slines if not l[0] in "#x"]
    )
    x, re_u, im_u = data.T
    alpha, a, k, gamma, t = 1.5, 0.1, 2.0, 1.0, 0.2
    exact = a * np.exp(1j * (k * x + (k**alpha - gamma * a**2) * t))
    err = np.linalg.norm(re_u + 1j * im_u - exact) / np.linalg.norm(exact)
    assert err < 1e-6


def test_evolve_zero_mass_header_drifts_are_zero(tmp_path):
    # the drifts are relative to the first value, or absolute when it is 0
    out = tmp_path / "zero.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["evolve", "--init", "plane:a=0", "--t-final", "0.01", "--out", str(out)])
    assert rc == 0
    lines = _read(out)
    assert "# mass_drift=0" in lines and "# energy_drift=0" in lines


def test_picard_report(tmp_path):
    out = tmp_path / "picard.txt"
    rc = main(
        [
            "picard", "--nx", "128", "--dt", "1e-3", "--t-final", "0.05",
            "--init", "gaussian:a=0.2,sigma=0.6", "--iterations", "5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    body = {
        l.split("=", 1)[0]: l.split("=", 1)[1]
        for l in _read(out)
        if not l.startswith("#")
    }
    diffs = [float(v) for v in body["difference_norms"].split(",")]
    assert len(diffs) == 5
    assert diffs[1] < diffs[0]


def test_scan_trilinear_csv_has_slope(tmp_path):
    out = tmp_path / "tri.csv"
    rc = main(
        [
            "scan-trilinear", "--alpha", "1.5", "--s", "0", "--b", "0.51",
            "--n", "16,32,64,128", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = _read(out)
    slope = next(
        float(l.split("=")[1]) for l in lines if l.startswith("# fitted_slope=")
    )
    assert slope == pytest.approx(0.25, abs=0.15)
    assert "parameter,value,aux1,aux2" in lines


def test_scan_remainder_cli(tmp_path):
    out = tmp_path / "rem.csv"
    rc = main(
        ["scan-remainder", "--alpha", "1.2", "--n", "16,32,64,128,256", "--out", str(out)]
    )
    assert rc == 0
    lines = _read(out)
    assert any(l.startswith("# bound_ok=True") for l in lines)


def test_scan_wavepacket_cli(tmp_path):
    out = tmp_path / "wp.csv"
    rc = main(
        ["scan-wavepacket", "--s", "0.25", "--m", "16,32,64,128", "--out", str(out)]
    )
    assert rc == 0
    lines = _read(out)
    slope = next(
        float(l.split("=")[1]) for l in lines if l.startswith("# fitted_slope_s=0.25=")
    )
    assert slope == pytest.approx(0.25, abs=0.05)


def _run_python(args, **kwargs):
    """`python args` with this fnls first on the import path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fnls.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, timeout=120, **kwargs
    )


def _run_module(module, args):
    """`python -m module args` with this fnls first on the import path."""
    return _run_python(["-m", module, *args])


@pytest.mark.parametrize("module", ["fnls.cli", "fnls"])
def test_python_dash_m_runs_the_command(tmp_path, module):
    args = ["scan-remainder", "--n", "16,32,64,128"]
    want, got = tmp_path / "main.csv", tmp_path / "module.csv"
    assert main(args + ["--out", str(want)]) == 0
    assert _run_module(module, args + ["--out", str(got)]).returncode == 0
    assert got.read_bytes() == want.read_bytes()
    assert _run_module(module, ["not-a-command"]).returncode == 1


PACKAGE_SURFACE = """
import sys
import fnls
print(sorted(name for name in vars(fnls) if not name.startswith("_")), fnls.__version__,
      sorted(name for name in sys.modules if name.startswith("fnls.") or name == "numpy"))
"""


def test_package_holds_only_its_version():
    # each name has one import path, its module's: `import fnls` exposes no
    # other public name and loads neither a submodule nor numpy
    proc = _run_python(["-c", PACKAGE_SURFACE], text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"[] {fnls.__version__} []\n"


def test_config_file_seeds_defaults_flags_win(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("dt=2e-3\nt_final=0.1\ninit=plane:a=0.1,k=1\nnx=128\n")
    out = tmp_path / "o.csv"
    rc = main(
        ["evolve", "--config", str(cfgfile), "--dt", "1e-3", "--out", str(out)]
    )
    assert rc == 0
    lines = _read(out)
    assert any(l == "# dt=0.001" for l in lines)  # flag wins
    assert any(l == "# t_final=0.10000000000000001" for l in lines)  # config value
    assert any(l == "# nx=128" for l in lines)


@pytest.mark.parametrize(
    "spell", [lambda path: ["--conf", path], lambda path: [f"--con={path}"]],
    ids=["--conf FILE", "--con=FILE"],
)
def test_abbreviated_config_flag_applies_the_file(tmp_path, spell):
    # argparse accepts the abbreviation, so the file it names seeds the run
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("nx=64\nt_final=0.01\n")
    out = tmp_path / "o.csv"
    assert main(["evolve", *spell(str(cfgfile)), "--out", str(out)]) == 0
    lines = _read(out)
    assert "# nx=64" in lines and "# t_final=0.01" in lines


def test_bad_config_value_names_its_option(tmp_path, capsys):
    # config values are converted by the option's own type
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("nx=abc\n")
    assert main(["evolve", "--config", str(cfgfile)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "error: argument --nx: invalid int value: 'abc'"


def test_unknown_config_key_is_validation_error(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("bogus=1\n")
    assert main(["evolve", "--config", str(cfgfile)]) == 1


def test_usage_errors_exit_one(capsys):
    assert main(["evolve", "--no-such-flag"]) == 1
    assert main(["not-a-command"]) == 1
    assert main(["evolve", "--nx", "12"]) == 1  # grid validation
    assert main(["evolve", "--seed", "1"]) == 1  # no such option


def test_argparse_error_names_the_option(capsys):
    # the usage line, then argparse's own message
    assert main(["evolve", "--nx", "abc"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: fnls evolve ")
    assert err.splitlines()[-1] == "error: argument --nx: invalid int value: 'abc'"


BAD_NUMBERS = [
    (["scan-wavepacket", "--m", "16,32,64,inf"], "expected comma-separated finite numbers"),
    (["scan-wavepacket", "--m", "nan"], "expected comma-separated finite numbers"),
    (["scan-wavepacket", "--tau", "nan"], "--tau must be finite"),
    (["scan-wavepacket", "--tau", "inf"], "--tau must be finite"),
    (["scan-wavepacket", "--tau", "0"], "tau_scale must be positive"),
    (["scan-remainder", "--xi-max", "nan"], "--xi-max must be finite"),
    (["scan-remainder", "--xi-max", "inf"], "--xi-max must be finite"),
    (["scan-remainder", "--n", "16,32,64,128,inf"], "expected comma-separated finite numbers"),
    (["approx-error", "--n", "8,16,32,inf"], "expected comma-separated finite numbers"),
    (["illposed", "--n-carrier", "inf"], "--n-carrier must be finite"),
    (["illposed", "--sigma", "0"], "sigma must be positive"),
    (["evolve", "--t-final", "inf"], "--t-final must be finite"),
    (["evolve", "--t-final", "nan"], "--t-final must be finite"),
    (["evolve", "--dt", "1e-300"], "1e+299 records: 4.58e+294 MiB"),
    (["evolve", "--dt", "5e-324"], "t_final / dt overflows"),
    (["evolve", "--dt", "1e-300", "--record-every", str(10**301)], "1e+300 steps of 1 x 256 values"),
    (["scan-wavepacket", "--tau", "1e-300"], "packet grid at tau_scale = 1e-300 and m = 0: "),
    (["scan-wavepacket", "--tau", "1e300"], "tau_scale must be at most LENGTH_LIMIT / 64"),
    # a 2^23-point packet grid: rejected by the packet grid, which names
    # tau_scale, not by make_grid, whose remedy names an nx this command lacks
    (["scan-wavepacket", "--tau", "5e-5", "--s", "0", "--m", "16,32,64,128"],
     "packet grid at tau_scale = 5e-05 and m = 0: 1152 MiB and 8.39e+06 work units exceed"),
    (["illposed", "--alpha", "-1"], "alpha must lie in (1, 2], got -1"),
    (["illposed", "--n-carrier", "-1"], "carrier frequency must be >= 1, got -1"),
    (["illposed", "--n-carrier", "0"], "carrier frequency must be >= 1, got 0"),
    (["scan-remainder", "--n", "1e300,1e301,1e302,1e303"], "1e+300 overflows N^alpha"),
    (["evolve", "--nx", "2147483648"], "a grid of nx = 2147483648: 294912 MiB"),
    (["picard", "--nx", "1073741824"], "a grid of nx = 1073741824: 147456 MiB"),
    # one stepping row on 2^24 points, 2304 MiB: rejected before initial_field
    # allocates a field
    (["evolve", "--nx", "16777216", "--length", "1e6", "--t-final", "0.002", "--dt", "0.001"],
     "a grid of nx = 16777216: 2304 MiB"),
    # 1e9 steps of 16 values and 16,376 Picard blocks x 262,000 iterations:
    # hours of work, each pass paying PASS_OVERHEAD units
    (["evolve", "--nx", "16", "--dt", "1e-6", "--t-final", "1000", "--record-every", "1000000000"],
     "1e+09 steps of 1 x 16 values and 2 records: 0 MiB and 5.28e+11 work units exceed"),
    (["picard", "--nx", "16", "--t-final", "262", "--dt", "1e-3", "--iterations", "262000"],
     "262001 Picard rows x 262000 iterations x 16 values: 145 MiB and 3.3e+12 work units"),
    (["illposed", "--n-carrier", "0.5"], "carrier frequency must be >= 1, got 0.5"),
    (["illposed", "--n-carrier", "1e-300"], "carrier frequency must be >= 1, got 1e-300"),
    (["illposed", "--n-carrier", "1e300"], "carrier frequency 1e+300 overflows N^alpha, alpha 1.5"),
    (["illposed", "--s=-0.24", "--n-carrier", "1e300"], "carrier frequency 1e+300 overflows N^1.4"),
    (["approx-error", "--epsilon", "-1"], "epsilon must be positive, got -1"),
    (["approx-error", "--epsilon", "0"], "epsilon must be positive, got 0"),
    (["evolve", "--length", "1e300"], "length must lie in (0, 1e+100], got 1e+300"),
    (["scan-remainder", "--n", "1e200,1e201,1e202,1e203"], "finite data: N = 1e+200 gives 0"),
    (["approx-error", "--n=0,8,16,32"], "carrier frequency must be positive, got 0"),
    (["approx-error", "--n=-8,8,16,32"], "carrier frequency must be positive, got -8"),
    (["approx-error", "--n", "1e300,8,16,32"], "carrier frequency 1e+300 overflows N^alpha, alpha 1.5"),
    (["approx-error", "--n="], "need at least four carriers, got 0"),
    (["approx-error", "--n=8"], "need at least four carriers, got 1"),
    (["approx-error", "--n=8,8,8,8"], "power-law fit needs distinct N values: N = 8 repeats"),
    (["approx-error", "--n", "8,8,16,32"], "power-law fit needs distinct N values: N = 8 repeats"),
    (["scan-remainder", "--n=16,16,16,16"], "needs distinct N values: N = 16 repeats"),
    (["scan-trilinear", "--n=16,16,16,16"], "needs distinct N values: N = 16 repeats"),
    (["scan-wavepacket", "--m=16,16,16,16"], "needs distinct M values: M = 16 repeats"),
    # a repeat of the smallest of five points, which the fit drops as
    # preasymptotic: each exited 0 and wrote the repeated row twice
    (["scan-trilinear", "--n", "16,32,64,128,16"], "needs distinct N values: N = 16 repeats"),
    (["scan-wavepacket", "--m", "16,16,32,64,128"], "needs distinct M values: M = 16 repeats"),
    (["scan-remainder", "--n", "16,16,32,64,128"], "needs distinct N values: N = 16 repeats"),
    # the modulated pipelines' stepping names their own window option, not
    # evolve's dt, record_every and nx, which these commands lack
    (["approx-error", "--t-final", "1e9"],
     "exceed the 1024 MiB / 1.72e+10-unit budget; lower t_final\n"),
    (["illposed", "--t-internal", "1e12"],
     "exceed the 1024 MiB / 1.72e+10-unit budget; lower t_internal\n"),
    # numbers inside --init: a non-finite one or sigma = 0 reached the step as
    # a non-finite spectrum (exit 2), and sigma < 0 ran (exit 0)
    (["evolve", "--init", "gaussian:a=nan"], "init parameter a must be finite, got nan"),
    (["evolve", "--init", "gaussian:a=inf"], "init parameter a must be finite, got inf"),
    (["evolve", "--init", "gaussian:x0=nan"], "init parameter x0 must be finite, got nan"),
    (["evolve", "--init", "plane:a=nan"], "init parameter a must be finite, got nan"),
    (["evolve", "--init", "gaussian:sigma=0"], "sigma must be positive, got 0.0"),
    (["evolve", "--init", "gaussian:sigma=-1"], "sigma must be positive, got -1.0"),
    (["picard", "--init", "gaussian:sigma=-1"], "sigma must be positive, got -1.0"),
    # a frequency off the band [-128, 128) of nx 256 on 2 pi aliased onto
    # another mode: plane:k=200 ran as k = -56 under a header saying 200
    (["evolve", "--init", "plane:k=200"], "k = 200 lies outside the grid's band [-128, 128)"),
    (["evolve", "--init", "gaussian:k=500"], "k = 500 lies outside the grid's band [-128, 128)"),
    # with no s no packet was built, so no carrier was checked: both exited 0
    # with a header-only CSV
    (["scan-wavepacket", "--s="], "need at least one s"),
    (["scan-wavepacket", "--s=", "--m", "0.5,-1,2"], "need at least one s"),
    # a carrier whose mode index M / dk overflows: round(inf) raised an
    # OverflowError, a traceback
    (["scan-wavepacket", "--m", "16,32,64,8.98846567431158e+307"],
     "carrier M = 8.98847e+307 overflows its mode index"),
    # 2^1000, whose |xi|^alpha overflows: RuntimeWarnings, then "cannot
    # convert float NaN to integer", from the box lattice's length
    (["scan-trilinear", "--n", "16,32,64,1.0715086071862673e+301"],
     "N = 1.07151e+301 overflows |xi|^alpha across its box, alpha 1.5"),
]


@pytest.fixture
def no_steps(monkeypatch):
    """Integrators that fail at once, so an input admitted by mistake fails
    fast instead of running for hours or filling its history."""
    def stepped(*args, **kwargs):
        raise AssertionError("an integrator ran")

    monkeypatch.setattr(evolution, "_split_step", stepped)
    monkeypatch.setattr(evolution, "cubic_values", stepped)


@pytest.mark.parametrize("args, message", BAD_NUMBERS, ids=[" ".join(a) for a, _ in BAD_NUMBERS])
def test_non_finite_or_zero_width_input_is_one_error_line(capsys, no_steps, args, message):
    # each is rejected before any step, and before any work but the scans'
    # repeated points, which the fit rejects after their points (approx-error
    # rejects repeated carriers before building any run); each used to end in
    # a traceback, a numpy message, a runtime failure, a run on nonsense input
    # or hours of stepping
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err and "Traceback" not in err


def test_non_finite_config_value_is_validation_error(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("t_final=inf\n")
    assert main(["evolve", "--config", str(cfgfile)]) == 1
    assert capsys.readouterr().err == "error: --t-final must be finite, got inf\n"


@pytest.mark.parametrize("spec, centre", [
    ("gaussian:a=1,sigma=1e-300", 128),
    ("gaussian:x0=1e160", None),
])
def test_narrow_or_far_gaussian_runs_without_a_warning(tmp_path, capsys, spec, centre):
    # ((x - x0) / sigma)^2 overflows off the packet's centre, where its
    # sample is exp(-inf) = 0: a unit spike at x = pi = x0, or no packet
    grid = make_grid(256, 2.0 * np.pi)
    samples = np.zeros(grid.nx)
    if centre is not None:
        samples[centre] = 1.0
    assert np.array_equal(initial_field(grid, spec).values, Field.physical(grid, samples).values)
    assert main(["evolve", "--init", spec, "--out", str(tmp_path / "e.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_picard_lattice_over_work_limit_is_validation_error(capsys, no_steps):
    # 2^18 iterations carry 2 rows of 256 values each, 2 GiB, in 1.2e9 work
    # units; 626 blocks x 2000 iterations x (16 x 1024 + 512) units pass
    # the work budget in 65 MiB
    for args, message in (
        (["--t-final", "0.01", "--iterations", "262144"], ": 2064 MiB and 1.21e+09 work units"),
        (["--t-final", "10", "--nx", "1024", "--iterations", "2000"], ": 65 MiB and 2.12e+10 work"),
    ):
        assert main(["picard", *args]) == 1
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evolve", "picard"])
def test_limit_messages_of_tiny_dt_are_short(capsys, no_steps, command):
    # 1e299 records or time rows: counts to three digits, not in full
    assert main([command, "--dt", "1e-300"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err
    assert "1e+299" in err


def test_evolve_history_over_memory_limit_is_validation_error(capsys, no_steps):
    # 24,000,001 records at the 48 B evolve keeps of each (its summary
    # columns and drift's temporaries): 1098 MiB, in 1.25e10 work units,
    # rejected before anything is allocated (the history alone, 144 B a
    # record, was admitted)
    assert main(["evolve", "--nx", "8", "--t-final", "24000", "--record-every", "1"]) == 1
    assert "2.4e+07 records: 1098 MiB and 1.25e+10 work units" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--t-final", "2.62", "--record-every", "1"],  # 2,621 records
    ["--t-final", "26.2", "--record-every", "1"],  # 26,201 records
    # 3 records and 65,536 dumped samples, written as each line is formatted
    # (a list of the lines and their joined text went unpriced: 1.32x over)
    ["--nx", "65536", "--length", "8192", "--dt", "0.01", "--t-final", "0.02",
     "--init", "gaussian:a=1,sigma=4,x0=4096", "--dump-state", "state.csv"],
], ids=["2.62", "26.2", "dump-state"])
def test_evolve_prediction_bounds_the_commands_peak(tmp_path, monkeypatch, args):
    # the one admission prices the whole command: the stepping, the summary's
    # blocks and each record's columns; the CSV is written line by line (the
    # whole history and its samples, built after the call returned, peaked
    # at about 4x), and the argument parser goes before the command runs
    monkeypatch.chdir(tmp_path)
    predicted = []

    def admit(what, remedy, nbytes, work):
        predicted.append(nbytes)
        spectral.admit(what, remedy, nbytes, work)

    monkeypatch.setattr(evolution, "admit", admit)
    tracemalloc.start()
    try:
        assert main(["evolve", *args, "--out", "e.csv"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [nbytes] = predicted
    assert peak <= nbytes <= 1.5 * peak


def test_scan_trilinear_over_memory_limit_is_validation_error(capsys):
    # N = 2^26's box lattice is 1.33e8 cells, over 1 GiB at 9 bytes a cell:
    # rejected before any box
    n_list = ",".join(str(2**j) for j in range(4, 27))
    assert main(["scan-trilinear", "--n", n_list]) == 1
    assert "box lattice of 1.33e+08 (tau, xi) cells: 1145 MiB" in capsys.readouterr().err


def test_runtime_failure_exits_two(tmp_path):
    # an envelope too wide for the torus trips the wrap-around guard
    rc = main(
        [
            "illposed", "--sigma", "200", "--t-internal", "1.0",
            "--out", str(tmp_path / "x.txt"),
        ]
    )
    assert rc == 2


@pytest.mark.parametrize(
    "args",
    [
        ["illposed", "--n-carrier", "32", "--t-internal", "40"],
        ["approx-error", "--n", "64,128,256,512", "--t-final", "0.01"],
        ["approx-error", "--n", "8,16,32,128", "--t-final", "0.01"],
    ],
    ids=lambda args: " ".join(args),
)
def test_carrier_band_past_the_nx_grid_runs(tmp_path, args):
    # the runs and images live on the carrier's band, with no whole-torus
    # grid for the band to fit: N = 32's band reaches mode 2089 of the
    # torus of illposed, N = 128's mode 1232 of approx-error's (each exited
    # 2 while the band had to fit a 4096- or 2048-point grid)
    assert main([*args, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("args", [["--t-final", "5"], ["--alpha", "1.9", "--t-final", "5"]],
                         ids=lambda args: " ".join(args))
def test_approx_error_long_window_runs_in_the_rest_frame(tmp_path, args):
    # in the lab frame the carrier-64 packet crossed its 47.9-long torus at
    # speed 12 (80 at alpha 1.9), and its band run wrapped around at
    # t = 1.58 (t = 0.16); in the packet's rest frame the window runs
    assert main(["approx-error", *args, "--out", str(tmp_path / "ae.csv")]) == 0


def test_approx_error_cli(tmp_path):
    out = tmp_path / "ae.csv"
    # gate 7's carriers over a fifth of its window: the slope is the same
    rc = main([
        "approx-error", "--alpha", "1.5", "--n", "8,16,32,64", "--t-final", "0.1",
        "--out", str(out),
    ])
    assert rc == 0
    lines = _read(out)
    slope = next(
        float(l.split("=")[1]) for l in lines if l.startswith("# fitted_slope=")
    )
    assert slope <= -0.45


def test_verify_aggregation(tmp_path, monkeypatch):
    import fnls.cli as cli
    from fnls.acceptance import CriterionResult

    def fake_ok(echo=print):
        return [CriterionResult(1, "stub", True, "fine")]

    def fake_bad(echo=print):
        return [
            CriterionResult(1, "stub", True, "fine"),
            CriterionResult(2, "stub2", False, "broken"),
        ]

    monkeypatch.setattr(cli, "run_acceptance", fake_ok)
    out = tmp_path / "verify.txt"
    assert main(["verify", "--out", str(out)]) == 0
    assert "all_passed=True" in out.read_text()

    monkeypatch.setattr(cli, "run_acceptance", fake_bad)
    assert main(["verify"]) == 2


def test_verify_reports_raising_gate_and_runs_the_rest(tmp_path, monkeypatch, capsys):
    from fnls import acceptance
    from fnls.errors import WrapAroundError

    def raising_gate():
        raise WrapAroundError("packet hit the boundary")

    def passing_gate():
        return acceptance.CriterionResult(2, "stub", True, "fine")

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", (raising_gate, passing_gate))
    out = tmp_path / "verify.txt"
    assert main(["verify", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" in captured.err
    lines = captured.out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("[FAIL] criterion 1 (raising_gate): raised WrapAroundError")
    assert "packet hit the boundary" in lines[0]
    assert lines[1].startswith("[PASS] criterion 2")
    report = out.read_text()
    assert "criterion_1=FAIL" in report and "criterion_2=PASS" in report


def test_illposed_cli_short(tmp_path):
    out = tmp_path / "ill.txt"
    rc = main(
        [
            "illposed", "--epsilon", "0.4", "--delta", "0.004",
            "--t-internal", "5.0", "--out", str(out),
        ]
    )
    assert rc == 0
    body = {
        l.split("=", 1)[0]: float(l.split("=", 1)[1])
        for l in _read(out)
        if not l.startswith("#") and "=" in l
    }
    assert body["data_norm_1"] == pytest.approx(0.4, rel=1e-9)
    assert body["data_separation"] == pytest.approx(0.004, rel=1e-6)
    # the resolved pipeline parameters: dt = 0.2 records every 40 time units
    assert (body["dt"], body["record_every"], body["nx_envelope"]) == (0.2, 200, 512)
    assert body["length"] == 2.0 * np.pi * 917 / 16.0  # 360 moved onto the N = 16 lattice


def test_illposed_cli_checks_the_callers_epsilon(tmp_path, capsys):
    # the data norm epsilon may be anywhere in (0, 1): the envelope norm
    # behind it (1.28 epsilon here) is not the caller's
    out = tmp_path / "ill.txt"
    rc = main(["illposed", "--epsilon", "0.8", "--delta", "0.004", "--t-internal", "4",
               "--out", str(out)])
    assert rc == 0
    body = dict(l.split("=", 1) for l in _read(out) if not l.startswith("#") and "=" in l)
    assert float(body["data_norm_1"]) == pytest.approx(0.8, rel=1e-12)
    rc = main(["illposed", "--epsilon", "1.2", "--t-internal", "4", "--out", str(out)])
    assert rc == 1
    assert "epsilon must lie in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, dt",
    [
        (["--alpha", "1.7"], 0.05),
        (["--alpha", "1.9"], 0.025),
        (["--alpha", "1.7", "--n-carrier", "28"], 0.025),
    ],
)
def test_illposed_cli_fast_carrier_takes_a_finer_step(tmp_path, flags, dt):
    # these carriers turn faster per step than gate 8's, so the default step
    # goes down the ladder; at dt = 0.2 the last two would fail the
    # accuracy guard
    out = tmp_path / "ill.txt"
    rc = main(["illposed", *flags, "--t-internal", "5.0", "--out", str(out)])
    assert rc == 0
    body = dict(l.split("=", 1) for l in _read(out) if not l.startswith("#") and "=" in l)
    assert float(body["dt"]) == dt


# the edge-value sweep: each numeric option of each subcommand but verify,
# one at a time, takes each edge value (a number list, each edge list) on top
# of a base that runs in milliseconds
SWEEP_BASE = {
    "evolve": ["--nx", "64", "--t-final", "0.01"],
    "picard": ["--nx", "64", "--t-final", "0.01", "--iterations", "2"],
    "scan-trilinear": ["--n", "16,32,64,128"],
    "scan-remainder": ["--n", "16,32,64,128"],
    "scan-wavepacket": ["--s", "0", "--m", "16,32,64,128"],
    "approx-error": ["--t-final", "0.01"],
    "illposed": ["--t-internal", "8"],
}
EDGE_VALUES = ["0", "-1", "1e-300", "1e300", "2147483648", "nan", "-inf"]
EDGE_LISTS = ["", "8", "8,8,8,8", "0,1,2,3", "-4,-3,-2,-1", "1e300,1e301,1e302,1e303", "1,nan"]
# values past the edges above that reach a failure of their own: an s or b
# this low underflows the trilinear factor norms to 0, which the fit rejects
EDGE_EXTRA = {"scan-trilinear": ["--s=-200", "--b=-1e5"]}
SWEEP_CASE_BUDGET_S = 2.0
SWEEP_ADDRESS_SPACE = 3 * 2**30

# runs each case through cli.main in one process under an address-space cap
# and prints [args, exit code, stderr, seconds] for each as one JSON line
SWEEP_CHILD = """
import contextlib, io, json, resource, sys, time, traceback
cap = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from fnls.cli import main
results = []
for args in json.loads(sys.stdin.read()):
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except Exception:
            code = None
            traceback.print_exc()
    results.append([args, code, err.getvalue(), time.perf_counter() - start])
print(json.dumps(results))
"""


def test_out_of_memory_is_one_runtime_failure_line():
    # nx = 2^22 is admitted (738 MiB predicted), but its 64 MiB fields do not
    # fit under a 512 MiB address-space cap, of which the interpreter takes
    # about 144 MiB: the first allocation that fails ends the run in one
    # line, before the child has touched the cap's worth of memory
    args = ["evolve", "--nx", "4194304", "--length", "1e6", "--t-final", "0.002", "--dt", "0.001"]
    proc = _run_python(["-c", SWEEP_CHILD, str(2**29)], input=json.dumps([args]), text=True)
    assert proc.returncode == 0, proc.stderr
    [[_, code, err, _]] = json.loads(proc.stdout.splitlines()[-1])
    # numpy names the array it could not allocate; pocketfft's MemoryError is bare
    assert code == 2 and err.count("\n") == 1, err
    assert err.startswith(("runtime failure: Unable to allocate", "runtime failure: out of memory"))


def _is_number_list(text):
    try:
        return bool(_float_list(text))
    except ValueError:
        return False


def _sweep_cases():
    subparsers = build_parser().subcommands.choices
    assert set(SWEEP_BASE) == set(subparsers) - {"verify"}
    cases = []
    for command, base in SWEEP_BASE.items():
        for action in subparsers[command]._actions:
            if not action.option_strings or action.dest in ("help", "config", "out"):
                continue
            if action.type in (int, float):
                edges = EDGE_VALUES
            elif isinstance(action.default, str) and _is_number_list(action.default):
                edges = EDGE_LISTS
            else:
                continue
            cases += [[command, *base, f"{action.option_strings[0]}={v}"] for v in edges]
        cases += [[command, *base, flag] for flag in EDGE_EXTRA.get(command, [])]
    return cases


def test_every_numeric_edge_value_ends_in_one_line():
    cases = _sweep_cases()
    assert len(cases) > 200
    proc = _run_python(
        ["-c", SWEEP_CHILD, str(SWEEP_ADDRESS_SPACE)], input=json.dumps(cases), text=True
    )
    assert proc.returncode == 0, proc.stderr
    bad = []
    for args, code, err, seconds in json.loads(proc.stdout.splitlines()[-1]):
        last = (err.splitlines() or [""])[-1]
        ends_in_one_line = code == 0 or (
            last.startswith(("error:", "runtime failure:")) and len(last) < 200
        )
        if code not in (0, 1, 2) or not ends_in_one_line or "Traceback" in err or "Warning" in err:
            bad.append(f"{' '.join(args)} -> exit {code}: {err.strip()[-400:]}")
        elif seconds > SWEEP_CASE_BUDGET_S:
            bad.append(f"{' '.join(args)} took {seconds:.2f} s")
    assert not bad, "\n".join(bad)
