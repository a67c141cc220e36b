"""Acceptance gates: one callable per criterion, each returning a result
with pass/fail and the measured numbers.  tests/test_acceptance.py asserts
these and the CLI `verify` subcommand runs the same list.

Desk parameters that the criteria leave open are fixed here and documented
in the README (remainder scan window xi_max = 0.5; separation-demo envelope
width, window, and carrier below).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass

import numpy as np

from .spectral import Field, make_grid, spectral_values
from .evolution import SimConfig, evolve, picard_iterate
from .experiments import (
    initial_field,
    run_approximation_error,
    run_conservation_suite,
    run_illposedness_demo,
    scan_remainder,
    scan_trilinear,
    scan_wavepacket,
)

R2_GATE = 0.98


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.index} ({self.name}): {self.detail}"


def criterion_1_plane_wave() -> CriterionResult:
    """Split-step vs the closed-form plane wave for four alpha values."""
    grid = make_grid(256, 2.0 * np.pi)
    a, k, gamma, t_final = 0.1, 2.0, 1.0, 1.0
    worst = 0.0
    for alpha in (1.2, 1.5, 1.8, 2.0):
        cfg = SimConfig(
            alpha=alpha, gamma=gamma, dt=1e-3, t_final=t_final,
            grid=grid, record_every=1000,
        )
        traj = evolve(initial_field(grid, f"plane:a={a},k={k}"), cfg)
        omega = abs(k) ** alpha - gamma * a**2
        exact = a * np.exp(1j * (k * grid.x + omega * t_final))
        got = spectral_values(traj.states[-1])
        ref = Field.physical(grid, exact)
        err = np.linalg.norm(got - spectral_values(ref)) / np.linalg.norm(
            spectral_values(ref)
        )
        worst = max(worst, float(err))
    return CriterionResult(
        1, "plane-wave oracle", worst <= 1e-6,
        f"max relative L2 error {worst:.3e} (gate 1e-06)",
    )


def criterion_2_conservation() -> CriterionResult:
    grid = make_grid(256, 2.0 * np.pi)
    cfg = SimConfig(
        alpha=1.5, gamma=1.0, dt=1e-3, t_final=1.0, grid=grid, record_every=50
    )
    rep = run_conservation_suite(cfg, "gaussian:a=1.0,sigma=0.5")
    ok = rep["mass_drift"] <= 1e-10 and 3.0 <= rep["energy_drift_ratio"] <= 5.0
    return CriterionResult(
        2, "conservation", ok,
        f"mass drift {rep['mass_drift']:.3e} (gate 1e-10), "
        f"energy ratio {rep['energy_drift_ratio']:.3f} (gate [3, 5])",
    )


def criterion_3_picard() -> CriterionResult:
    grid = make_grid(256, 2.0 * np.pi)
    cfg = SimConfig(
        alpha=1.5, gamma=1.0, dt=1e-3, t_final=0.1, grid=grid, record_every=1
    )
    phi = initial_field(grid, "gaussian:a=0.2,sigma=0.6")
    pic = picard_iterate(phi, cfg, iterations=6)
    ref = evolve(phi, cfg)
    diff = spectral_values(pic.final) - spectral_values(ref.states[-1])
    agree = float(np.linalg.norm(diff) / np.sqrt(grid.length))
    d = pic.difference_norms
    monotone = bool(np.all(d[1:5] < d[:4]))
    ok = agree <= 1e-6 and monotone
    return CriterionResult(
        3, "picard cross-check", ok,
        f"L2 agreement {agree:.3e} (gate 1e-06), "
        f"differences {['%.2e' % v for v in d[:5]]} monotone={monotone}",
    )


def criterion_4_trilinear() -> CriterionResult:
    alpha, b = 1.5, 0.51
    n_list = [16, 32, 64, 128, 256]
    checks = []
    details = []
    for s, ratio_target in ((0.0, 0.25), ((2.0 - alpha) / 4.0, 0.0)):
        scan = scan_trilinear(alpha, s, b, n_list)
        factor_target = s + (2.0 - alpha) / 4.0
        f_slope = scan.factors[0].fitted_slope
        r_slope = scan.ratio.fitted_slope
        # r^2 gates every fit whose asserted slope is nonzero; the threshold
        # ratio is flat by construction, where explained variance is
        # undefined and |slope| <= 0.15 is itself the flatness assertion
        gated = [scan.numerator, *scan.factors]
        if ratio_target != 0.0:
            gated.append(scan.ratio)
        r2_min = min(f.r_squared for f in gated)
        checks += [
            abs(f_slope - factor_target) <= 0.15,
            abs(r_slope - ratio_target) <= 0.15,
            r2_min >= R2_GATE,
        ]
        details.append(
            f"s={s:g}: factor slope {f_slope:.3f} (target {factor_target:.3f}), "
            f"ratio slope {r_slope:.3f} (target {ratio_target:.2f}), "
            f"min r2 {r2_min:.4f}"
        )
    return CriterionResult(
        4, "trilinear counterexample", all(checks), "; ".join(details)
    )


def criterion_5_remainder() -> CriterionResult:
    n_list = [2**j for j in range(4, 11)]
    checks, details = [], []
    for alpha in (1.2, 1.5, 1.8):
        res = scan_remainder(alpha, n_list, xi_max=0.5)
        slope = res.scan.fitted_slope
        checks += [abs(slope + alpha / 2.0) <= 0.1, res.bound_ok]
        details.append(
            f"alpha={alpha}: slope {slope:.3f} (target {-alpha / 2.0:.2f}), "
            f"bound margin {res.worst_margin:.3e}"
        )
    return CriterionResult(
        5, "remainder bound", all(checks), "; ".join(details)
    )


def criterion_6_wavepacket() -> CriterionResult:
    m_list = [2**j for j in range(4, 10)]
    scans = scan_wavepacket([-0.25, 0.0, 0.25], m_list)
    checks, details = [], []
    for s, scan in sorted(scans.items()):
        checks.append(abs(scan.fitted_slope - s) <= 0.05)
        details.append(f"s={s:+.2f}: slope {scan.fitted_slope:+.4f}")
    return CriterionResult(
        6, "wavepacket norm scaling", all(checks),
        "; ".join(details) + " (gate +-0.05)",
    )


def criterion_7_approximation() -> CriterionResult:
    alpha = 1.5
    res = run_approximation_error(alpha, [8, 16, 32, 64], epsilon=0.2, t_final=0.5)
    vals = res.scan.values
    decreasing = bool(np.all(np.diff(vals) < 0))
    slope = res.scan.fitted_slope
    ok = decreasing and slope <= -alpha / 2.0 + 0.3
    return CriterionResult(
        7, "approximation error", ok,
        f"errors {['%.3e' % v for v in vals]}, slope {slope:.3f} "
        f"(gate <= {-alpha / 2.0 + 0.3:.2f}), decreasing={decreasing}",
    )


def criterion_8_separation() -> CriterionResult:
    eps, delta = 0.5, 0.005
    rep = run_illposedness_demo(
        alpha=1.5, s=0.0, epsilon=eps, delta=delta,
        t_internal=600.0, n_carrier=16.0,
    )
    amp = rep["amplification"]
    norms_ok = all(
        eps / 2.0 <= rep[key] <= 2.0 * eps for key in ("data_norm_1", "data_norm_2")
    )
    sep_ok = delta / 2.0 <= rep["data_separation"] <= 2.0 * delta
    ok = amp >= 10.0 and norms_ok and sep_ok
    return CriterionResult(
        8, "separation demo", ok,
        f"amplification {amp:.1f} (gate >= 10), data norms "
        f"({rep['data_norm_1']:.3f}, {rep['data_norm_2']:.3f}) vs eps {eps}, "
        f"data separation {rep['data_separation']:.4f} vs delta {delta}",
    )


ALL_CRITERIA = (
    criterion_1_plane_wave,
    criterion_2_conservation,
    criterion_3_picard,
    criterion_4_trilinear,
    criterion_5_remainder,
    criterion_6_wavepacket,
    criterion_7_approximation,
    criterion_8_separation,
)


def run_acceptance(echo=print) -> list[CriterionResult]:
    """Run every criterion, echoing one pass/fail line each.

    A criterion that raises is reported as a failure whose detail holds the
    exception, its traceback goes to stderr, and the remaining criteria
    still run.
    """
    results = []
    for index, fn in enumerate(ALL_CRITERIA, start=1):
        t0 = time.perf_counter()
        try:
            res = fn()
        except Exception as exc:  # one broken gate must not hide the others
            traceback.print_exc()
            res = CriterionResult(
                index, fn.__name__, False, f"raised {type(exc).__name__}: {exc}"
            )
        res.elapsed = time.perf_counter() - t0
        results.append(res)
        if echo is not None:
            echo(res.line() + f" [{res.elapsed:.1f}s]")
    return results
