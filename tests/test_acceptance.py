"""Acceptance gates, one test per criterion.

Run with -s to see the pass/fail lines; `fnls verify` executes the same
checks.  Each gate runs once, in the session fixture of tests/conftest.py.
Desk-scale parameters and tolerances are pinned inside fnls.acceptance.
"""

import re

# the eight lines `fnls verify` prints, without their timings.  Gate 1's
# error and gate 2's mass drift are round-off (~1e-13): {round_off} matches
# them by pattern, and tests/test_gate_numbers.py pins their values
ROUND_OFF = r"\d\.\d{3}e-1[3-6]"
VERIFY_LINES = (
    "[PASS] criterion 1 (plane-wave oracle): max relative L2 error {round_off} (gate 1e-06)",
    "[PASS] criterion 2 (conservation): mass drift {round_off} (gate 1e-10), "
    "energy ratio 4.000 (gate [3, 5])",
    "[PASS] criterion 3 (picard cross-check): L2 agreement 1.807e-09 (gate 1e-06), "
    "differences ['6.65e-04', '1.20e-06', '4.18e-09', '4.32e-12', '8.45e-15'] monotone=True",
    "[PASS] criterion 4 (trilinear counterexample): s=0: factor slope 0.125 (target 0.125), "
    "ratio slope 0.248 (target 0.25), min r2 0.9999; s=0.125: factor slope 0.247 "
    "(target 0.250), ratio slope -0.002 (target 0.00), min r2 1.0000",
    "[PASS] criterion 5 (remainder bound): alpha=1.2: slope -0.621 (target -0.60), "
    "bound margin 3.820e-03; alpha=1.5: slope -0.756 (target -0.75), bound margin "
    "5.418e-03; alpha=1.8: slope -0.902 (target -0.90), bound margin 3.383e-03",
    "[PASS] criterion 6 (wavepacket norm scaling): s=-0.25: slope -0.2500; "
    "s=+0.00: slope +0.0000; s=+0.25: slope +0.2500 (gate +-0.05)",
    "[PASS] criterion 7 (approximation error): errors ['5.260e-04', '3.114e-04', "
    "'1.849e-04', '1.099e-04'], slope -0.753 (gate <= -0.45), decreasing=True",
    "[PASS] criterion 8 (separation demo): amplification 20.4 (gate >= 10), data norms "
    "(0.500, 0.505) vs eps 0.5, data separation 0.0050 vs delta 0.005",
)


def _check(res):
    print(res.line())
    assert res.passed, res.detail


def test_criterion_1_plane_wave_oracle(gate_results):
    _check(gate_results[1])


def test_criterion_2_conservation(gate_results):
    _check(gate_results[2])


def test_criterion_3_picard_cross_check(gate_results):
    _check(gate_results[3])


def test_criterion_4_trilinear_counterexample(gate_results):
    _check(gate_results[4])


def test_criterion_5_remainder_bound(gate_results):
    _check(gate_results[5])


def test_criterion_6_wavepacket_scaling(gate_results):
    _check(gate_results[6])


def test_criterion_7_approximation_error(gate_results):
    _check(gate_results[7])


def test_criterion_8_separation_demo(gate_results):
    _check(gate_results[8])


def test_verify_lines_are_pinned(gate_results):
    lines = [res.line() for res in gate_results.values()]
    assert len(lines) == len(VERIFY_LINES)
    for line, want in zip(lines, VERIFY_LINES):
        pattern = ROUND_OFF.join(re.escape(part) for part in want.split("{round_off}"))
        assert re.fullmatch(pattern, line), line
