"""Committed mutation checks: each mutant is a deliberate bug that named
tests must catch.

Each entry of MUTANTS holds a file (relative to the repository root), an
exact old text that occurs in it once, the new text that replaces it, and
the test ids expected to fail with the mutant in place.  The script copies
the tree to a temporary directory, applies one mutant at a time there and
runs only that mutant's tests; the working tree is never changed.  It
reports each survivor (a mutant whose tests all pass), each test id that no
longer fails, and each mutant whose old text no longer occurs exactly once
(stale: its code moved or went, so the entry must follow or go).  From the
repository root:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants
    python tests/mutants.py --full NAME ...  # the whole tier-1 suite per
                                             # mutant, listing what fails

The exit status is 0 when every mutant is killed by each of its tests and
none is stale.  tier-1 does not collect this file: it has no test_ prefix.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.pyc")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple


MUTANTS = [
    # the time step
    Mutant(
        "step angle scaled by 1 + 1e-9",
        "src/fnls/evolution.py",
        "    scale = -gamma * dt\n",
        "    scale = -gamma * dt * (1.0 + 1e-9)\n",
        (
            "tests/test_evolution.py::test_strang_step_matches_two_fft_reference[16]",
            "tests/test_evolution.py::test_strang_step_matches_five_fft_reference[256]",
            "tests/test_evolution.py::test_evolve_together_matches_two_fft_reference[1.0]",
        ),
    ),
    Mutant(
        "vN left out of a carrier grid's frame term",
        "src/fnls/evolution.py",
        "np.abs(k) ** self.alpha + self.frame_velocity * k",
        "np.abs(k) ** self.alpha + self.frame_velocity * (k - self.grid.carrier)",
        (
            "tests/test_constructions.py::test_demodulated_grid_matches_full_grid[-1.0]",
            "tests/test_gate_numbers.py::test_gate_8_report_is_pinned",
        ),
    ),
    Mutant(
        "one dx for every row of a batch",
        "src/fnls/evolution.py",
        "    dx = np.array([[c.grid.dx] for c in cfgs])\n",
        "    dx = np.array([[cfgs[0].grid.dx] for c in cfgs])\n",
        ("tests/test_evolution.py::test_evolve_together_rows_equal_evolve[0.02]",),
    ),
    Mutant(
        "the tail check on row 0 only",
        "src/fnls/evolution.py",
        "    tail = [row for row, c in enumerate(cfgs) if c.check_tail]\n",
        "    tail = [row for row, c in enumerate(cfgs) if c.check_tail][:1]\n",
        ("tests/test_evolution.py::test_evolve_together_failure_names_the_run",),
    ),
    Mutant(
        "blow-up check removed",
        "src/fnls/evolution.py",
        "    _reject_blow_up(uhat, cfgs, where)\n",
        "",
        (
            "tests/test_evolution.py::test_evolve_blow_up_guard",
            "tests/test_evolution.py::test_overflowing_cubic_angle_is_rejected_before_stepping[1.0]",
        ),
    ),
    # the Picard sweep
    Mutant(
        "Picard break removed",
        "src/fnls/evolution.py",
        "                    break  # so in every later block too",
        "                    pass  # so in every later block too",
        ("tests/test_evolution.py::test_picard_non_finite_difference_is_non_contraction",),
    ),
    # the cubic term
    Mutant(
        "cubic_values scaled by 1 + 1e-9",
        "src/fnls/spectral.py",
        "    u *= grid.dx**-2\n",
        "    u *= grid.dx**-2 * (1.0 + 1e-9)\n",
        (
            "tests/test_spectral.py::test_cubic_random_against_direct_oracle",
            "tests/test_spectral.py::test_cubic_plane_wave_is_eigenfunction",
        ),
    ),
    # the trilinear convolution and the X^{s,b} norm
    Mutant(
        "+ and - point counts swapped",
        "src/fnls/constructions.py",
        "    counts = (plus - minus).reshape(width, n_xi)\n",
        "    counts = (minus - plus).reshape(width, n_xi)\n",
        (
            "tests/test_constructions.py::test_trilinear_matches_brute_force",
            "tests/test_constructions.py::test_trilinear_point_masses",
        ),
    ),
    Mutant(
        "two cumsums in place of three",
        "src/fnls/constructions.py",
        "    for _ in range(3):\n        np.cumsum(counts",
        "    for _ in range(2):\n        np.cumsum(counts",
        (
            "tests/test_constructions.py::test_trilinear_matches_brute_force",
            "tests/test_constructions.py::test_trilinear_point_masses",
        ),
    ),
    Mutant(
        "xsb_norm one row off",
        "src/fnls/norms.py",
        "    tau = f.tau0 + f.dtau * (f.first + np.arange(f.values.shape[0])[:, None])\n",
        "    tau = f.tau0 + f.dtau * (f.first + 1 + np.arange(f.values.shape[0])[:, None])\n",
        (
            "tests/test_norms.py::test_xsb_single_delta",
            "tests/test_norms.py::test_xsb_weighs_nonzero_cells_as_the_dense_formula",
        ),
    ),
    # admission: each call's predicted bytes and work
    Mutant(
        "the per-pass overhead dropped",
        "src/fnls/spectral.py",
        "PASS_OVERHEAD = 2**9\n",
        "PASS_OVERHEAD = 0\n",
        (
            "tests/test_cli.py::test_non_finite_or_zero_width_input_is_one_error_line["
            "evolve --nx 16 --dt 1e-6 --t-final 1000 --record-every 1000000000]",
            "tests/test_evolution.py::test_evolve_records_checks_before_the_first_record",
        ),
    ),
    Mutant(
        "Picard's work a max of blocks and iterations",
        "src/fnls/evolution.py",
        "        n_blocks * iterations * (",
        "        max(n_blocks, iterations) * (",
        (
            "tests/test_cli.py::test_non_finite_or_zero_width_input_is_one_error_line["
            "picard --nx 16 --t-final 262 --dt 1e-3 --iterations 262000]",
            "tests/test_evolution.py::test_picard_is_admitted_at_exactly_the_budget",
        ),
    ),
    Mutant(
        "the kept records dropped from a call's bytes",
        "src/fnls/evolution.py",
        "16 * rows * STEP_FIELDS * nx + n_records * record_bytes + workspace_bytes,",
        "16 * rows * STEP_FIELDS * nx + workspace_bytes,",
        (
            "tests/test_cli.py::test_evolve_history_over_memory_limit_is_validation_error",
            "tests/test_evolution.py::test_evolve_history_limit_counts_every_record[0.02]",
        ),
    ),
    Mutant(
        "the per-record CLI bytes set to 0",
        "src/fnls/cli.py",
        "EVOLVE_RECORD_BYTES = 360\n",
        "EVOLVE_RECORD_BYTES = 0\n",
        (
            "tests/test_cli.py::test_evolve_history_over_memory_limit_is_validation_error",
            "tests/test_cli.py::test_evolve_prediction_bounds_the_commands_peak[26.2]",
        ),
    ),
    Mutant(
        "the summary's blocks left unpriced",
        "src/fnls/experiments.py",
        "record_bytes, 4 * 16 * chunk * cfg.grid.nx)",
        "record_bytes, 0)",
        (
            "tests/test_experiments.py::test_record_summary_prediction_bounds_its_peak[nx65536]",
        ),
    ),
    # symbols, scalings and fits
    Mutant(
        "remainder series stopped at 1e-14",
        "src/fnls/symbols.py",
        "np.all(np.abs(term) <= 1e-18 * np.maximum(",
        "np.all(np.abs(term) <= 1e-14 * np.maximum(",
        ("tests/test_symbols.py::test_remainder_series_stop_every_eighth_term_is_bit_equal",),
    ),
    Mutant(
        "carrier check at > 0 instead of >= 1",
        "src/fnls/constructions.py",
        "    if not n_carrier >= 1.0:  # below 1",
        "    if not n_carrier > 0.0:  # below 1",
        ("tests/test_experiments.py::test_illposedness_demo_range_check",),
    ),
    Mutant(
        "fit_power_law accepting inf",
        "src/fnls/experiments.py",
        "        if not (p > 0 and 0 < v < np.inf):\n",
        "        if not (p > 0 and 0 < v):\n",
        ("tests/test_experiments.py::test_fit_power_law_validation",),
    ),
    # the modulated pipelines in the packet's rest frame
    Mutant(
        "rest-frame phase sign flipped",
        "src/fnls/constructions.py",
        "    return n_carrier**alpha - n_carrier * group_velocity(alpha, n_carrier)\n",
        "    return n_carrier**alpha + n_carrier * group_velocity(alpha, n_carrier)\n",
        (
            "tests/test_constructions.py::test_change_of_variables_alpha_two",
            "tests/test_constructions.py::test_approximate_solution_constant_envelope_is_plane_wave",
            "tests/test_gate_numbers.py::test_gate_7_errors_are_pinned",
        ),
    ),
    Mutant(
        "envelope runs without check_tail",
        "src/fnls/experiments.py",
        "        v_cfg = SimConfig(alpha=2.0, grid=y_grid, **kw)\n",
        "        v_cfg = SimConfig(alpha=2.0, grid=y_grid, **{**kw, 'check_tail': False})\n",
        (
            "tests/test_experiments.py::"
            "test_modulated_batches_run_in_the_rest_frame_and_check_every_tail",
        ),
    ),
    Mutant(
        "band data without beta",
        "src/fnls/experiments.py",
        "        runs += [(Field(band, beta * phi.values), u_cfg) for phi in phis]\n",
        "        runs += [(Field(band, phi.values), u_cfg) for phi in phis]\n",
        (
            "tests/test_experiments.py::test_band_data_remodulates_to_the_lifted_envelope[gate7]",
            "tests/test_gate_numbers.py::test_gate_7_errors_are_pinned",
        ),
    ),
    Mutant(
        "band runs moving at +group_velocity",
        "src/fnls/experiments.py",
        "frame_velocity=-group_velocity(alpha, n)",
        "frame_velocity=group_velocity(alpha, n)",
        (
            "tests/test_experiments.py::"
            "test_modulated_batches_run_in_the_rest_frame_and_check_every_tail",
            "tests/test_gate_numbers.py::test_gate_7_errors_are_pinned",
        ),
    ),
    # the shared rules: one alpha check, one build of the separation runs,
    # one set of fit fields
    Mutant(
        "a resonant box admitting alpha = 2",
        "src/fnls/constructions.py",
        "        _check_alpha(self.alpha, allow_two=False)\n",
        "        _check_alpha(self.alpha, allow_two=True)\n",
        ("tests/test_symbols.py::test_dispersion_domain",),
    ),
    Mutant(
        "the illposed configs re-made at the smallest dt",
        "src/fnls/experiments.py",
        "replace(cfg, dt=dt, record_every=record_every)",
        "replace(cfg, dt=smallest, record_every=record_every)",
        (
            "tests/test_gate_numbers.py::test_gate_8_report_is_pinned",
            "tests/test_golden.py::test_cli_artifact_matches_golden[illposed]",
        ),
    ),
    Mutant(
        "the fit fields without r_squared",
        "src/fnls/cli.py",
        '("fitted_slope", "slope_stderr", "r_squared")',
        '("fitted_slope", "slope_stderr")',
        (
            "tests/test_golden.py::test_cli_artifact_matches_golden[scan-trilinear]",
            "tests/test_golden.py::test_cli_artifact_matches_golden[scan-remainder]",
            "tests/test_golden.py::test_cli_artifact_matches_golden[approx-error]",
        ),
    ),
    # the record summary of gate 2 and the evolve command
    Mutant(
        "the summary drops its last partial block",
        "src/fnls/evolution.py",
        "    if n:\n        yield times[:n], values[:n]\n",
        "",
        (
            "tests/test_experiments.py::test_record_summary_equals_whole_history_arithmetic["
            "256-0.001-0.016]",
            "tests/test_experiments.py::test_record_summary_equals_whole_history_arithmetic["
            "256-0.001-0.0155]",
        ),
    ),
    # the modulated pipelines' reductions, record by record
    Mutant(
        "the sup over the last record only",
        "src/fnls/experiments.py",
        "        np.maximum(sups, _weighted_norm(diff, weight, length), out=sups)\n",
        "        sups[:] = _weighted_norm(diff, weight, length)\n",
        ("tests/test_experiments.py::test_pair_sups_take_every_record_in_any_order",),
    ),
    Mutant(
        "gate 8's data norms read from the last record",
        "src/fnls/experiments.py",
        "        if i == 0:\n            norm1, norm2 = ",
        "        if True:\n            norm1, norm2 = ",
        (
            "tests/test_experiments.py::test_record_reductions_equal_whole_trajectory_arithmetic",
            "tests/test_gate_numbers.py::test_gate_8_report_is_pinned",
        ),
    ),
]


def _pytest(tree: str, args: list) -> tuple[int, set, str]:
    """Exit code, failed or erroring test ids and output of pytest in tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE", *args],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = {
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }
    return proc.returncode, failed, proc.stdout


def run(mutants, full: bool = False) -> int:
    problems = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="fnls-mutants-") as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        for m in mutants:
            path = os.path.join(tree, m.path)
            with open(path) as fh:
                original = fh.read()
            count = original.count(m.old)
            if count != 1:
                problems.append(f"STALE     {m.name}: old text occurs {count} times in {m.path}")
                print(problems[-1], flush=True)
                continue
            t0 = time.perf_counter()
            with open(path, "w") as fh:
                fh.write(original.replace(m.old, m.new))
            try:
                code, failed, out = _pytest(tree, [] if full else list(m.tests))
            finally:
                with open(path, "w") as fh:
                    fh.write(original)
            seconds = time.perf_counter() - t0
            if code not in (0, 1):
                status = f"BROKEN    {m.name}: pytest exit {code}\n{out[-1500:]}"
            elif not failed:
                status = f"SURVIVED  {m.name}"
            else:
                missed = [t for t in m.tests if t not in failed]
                status = f"killed    {m.name} ({len(failed)} failing, {seconds:.1f} s)"
                if missed and not full:
                    status = f"WEAK      {m.name}: these pass with it: {missed}"
            if not status.startswith("killed"):
                problems.append(status)
            print(status, flush=True)
            if full:
                for test in sorted(failed):
                    print(f"          {test}")
    total = time.perf_counter() - start
    print(f"{len(mutants)} mutants, {len(problems)} problems, {total:.0f} s")
    return 1 if problems else 0


def main(argv: list) -> int:
    full = "--full" in argv
    names = [a for a in argv if a != "--full"]
    unknown = sorted(set(names) - {m.name for m in MUTANTS})
    if unknown:
        print(f"unknown mutants: {unknown}", file=sys.stderr)
        return 2
    return run([m for m in MUTANTS if not names or m.name in names], full)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
