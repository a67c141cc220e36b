"""Gate numbers pinned to 1e-10 relative, so that a kernel change that moves
them fails in seconds rather than only in `fnls verify` or the benchmark.

The values were recorded with evolutions run one at a time, before the
pipelines stacked them; the stacked loop reproduces them bit for bit.
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


def test_short_window_separation_report_is_pinned():
    rep = run_illposedness_demo(
        alpha=1.5, s=0.0, epsilon=0.4, delta=0.004,
        t_internal=8.0, n_carrier=16.0, record_every=160,
    )
    assert {key: rep[key] for key in SHORT_SEPARATION} == pytest.approx(
        SHORT_SEPARATION, rel=1e-10
    )


def test_gate_7_errors_are_pinned():
    res = run_approximation_error(1.5, [8, 16, 32, 64], epsilon=0.2, t_final=0.5)
    assert res.errors == pytest.approx(GATE_7_ERRORS, rel=1e-10)
    assert res.scan.fitted_slope == pytest.approx(GATE_7_SLOPE, rel=1e-10)
