"""Gate numbers pinned to 1e-10 relative, so that a kernel change that moves
them fails in seconds rather than only in `fnls verify` or the benchmark.

The short-window and gate 7 values were recorded with evolutions run one at
a time, before the pipelines stacked them; the stacked loop reproduces them
bit for bit.  The short window passes dt = 0.025 explicitly, so its pins
guard the kernel whatever the pipeline's default step.
"""

import pytest

from fnls.experiments import run_approximation_error, run_illposedness_demo

# run_illposedness_demo on gate 8's carrier and exponents over a short window
SHORT_SEPARATION = {
    "lambda": 2.0,
    "t_physical": 2.82842712474619,
    "data_norm_1": 0.39999999999999997,
    "data_norm_2": 0.40399999999999997,
    "data_separation": 0.003999999999999977,
    "solution_separation_max": 0.004025559115077693,
    "t_of_max": 2.8284271247461903,
    "amplification": 1.0063897787694291,
    "approx_error_sup_1": 3.669212454925906e-05,
    "approx_error_sup_2": 3.7075687804701025e-05,
}

# gate 7's own call: N -> sup_t H^((2-alpha)/4) error, and the fitted slope
GATE_7_ERRORS = {
    8.0: 0.0005259736783449213,
    16.0: 0.00031137701684389634,
    32.0: 0.00018488241311487175,
    64.0: 0.00010987898182742728,
}
GATE_7_SLOPE = -0.7529279935059969

# gate 8's own call (default dt and record_every): the full report
GATE_8_ARGS = dict(alpha=1.5, s=0.0, epsilon=0.5, delta=0.005, t_internal=600.0, n_carrier=16.0)
GATE_8_REPORT = {
    "alpha": 1.5,
    "s": 0.0,
    "epsilon": 0.5,
    "delta": 0.005,
    "n_carrier": 16.0,
    "lambda": 2.0,
    "sigma": 16.0,
    "t_internal": 600.0,
    "t_physical": 212.13203435596424,
    "dt": 0.2,
    "data_norm_1": 0.5,
    "data_norm_2": 0.505,
    "data_separation": 0.005000000000000006,
    "solution_separation_max": 0.102179724938116,
    "t_of_max": 212.13203435596427,
    "amplification": 20.435944987623174,
    "approx_error_sup_1": 0.006453153149917291,
    "approx_error_sup_2": 0.006819790229413602,
}

# the numbers gate 8 reports; the default dt must keep the Strang error
# estimate (4/3) max |X(dt) - X(dt/2)| / |X(dt/2)| of each within this budget
GATE_8_MEASURED = (
    "data_norm_1", "data_norm_2", "data_separation", "solution_separation_max",
    "t_of_max", "amplification", "approx_error_sup_1", "approx_error_sup_2",
)
STRANG_ERROR_BUDGET = 1e-5


@pytest.fixture(scope="module")
def gate_8_report():
    return run_illposedness_demo(**GATE_8_ARGS)


def test_short_window_separation_report_is_pinned():
    rep = run_illposedness_demo(
        alpha=1.5, s=0.0, epsilon=0.4, delta=0.004,
        t_internal=8.0, n_carrier=16.0, dt=0.025, record_every=160,
    )
    assert {key: rep[key] for key in SHORT_SEPARATION} == pytest.approx(
        SHORT_SEPARATION, rel=1e-10
    )


def test_gate_7_errors_are_pinned():
    res = run_approximation_error(1.5, [8, 16, 32, 64], epsilon=0.2, t_final=0.5)
    assert res.errors == pytest.approx(GATE_7_ERRORS, rel=1e-10)
    assert res.scan.fitted_slope == pytest.approx(GATE_7_SLOPE, rel=1e-10)


def test_gate_8_report_is_pinned(gate_8_report):
    assert gate_8_report == pytest.approx(GATE_8_REPORT, rel=1e-10)


def test_gate_8_default_dt_meets_strang_error_budget(gate_8_report):
    # a kernel that lost its second order fails here (a first-order Lie
    # split does)
    half = run_illposedness_demo(**GATE_8_ARGS, dt=gate_8_report["dt"] / 2)
    estimate = 4.0 / 3.0 * max(
        abs(gate_8_report[key] - half[key]) / abs(half[key]) for key in GATE_8_MEASURED
    )
    assert estimate <= STRANG_ERROR_BUDGET
