"""Acceptance gates, one test per criterion.

Run with -s to see the pass/fail lines; `fnls verify` executes the same
checks.  Desk-scale parameters and tolerances are pinned inside
fnls.acceptance.
"""

from fnls import acceptance


def _check(fn):
    res = fn()
    print(res.line())
    assert res.passed, res.detail


def test_criterion_1_plane_wave_oracle():
    _check(acceptance.criterion_1_plane_wave)


def test_criterion_2_conservation():
    _check(acceptance.criterion_2_conservation)


def test_criterion_3_picard_cross_check():
    _check(acceptance.criterion_3_picard)


def test_criterion_4_trilinear_counterexample():
    _check(acceptance.criterion_4_trilinear)


def test_criterion_5_remainder_bound():
    _check(acceptance.criterion_5_remainder)


def test_criterion_6_wavepacket_scaling():
    _check(acceptance.criterion_6_wavepacket)


def test_criterion_7_approximation_error():
    _check(acceptance.criterion_7_approximation)


def test_criterion_8_separation_demo():
    _check(acceptance.criterion_8_separation)
