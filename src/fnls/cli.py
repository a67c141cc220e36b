"""Command-line front end.

Subcommands: evolve, picard, scan-trilinear, scan-remainder, scan-wavepacket,
approx-error, illposed, verify.  Every output file starts with a comment
header carrying the artifact version and the fully resolved configuration;
scan CSVs use the fixed column order parameter,value,aux1,aux2 and reports
are one key=value per line.  A flat key=value config file can seed any
subcommand's options; explicit flags win.  Exit codes: 0 success, 1
validation/usage error, 2 runtime failure (blow-up, resolution, failed
verify gate).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .errors import ValidationError
from .spectral import make_grid, physical_values
from .norms import energy, mass
from .evolution import SimConfig, evolve, picard_iterate
from .experiments import (
    drift,
    initial_field,
    run_approximation_error,
    run_illposedness_demo,
    scan_remainder,
    scan_trilinear,
    scan_wavepacket,
)
from .acceptance import run_acceptance


def fmt(x) -> str:
    """17 significant digits: enough for a bit-stable float round trip."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


class CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _header_lines(command: str, options: dict) -> list[str]:
    lines = [f"# fnls {__version__} {command}"]
    for key in sorted(options):
        lines.append(f"# {key}={fmt(options[key])}")
    return lines


def _emit(path, lines: list[str]) -> None:
    """Write the lines, each newline-terminated, to path (stdout when empty)."""
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_report(path, command, options, report: dict):
    lines = _header_lines(command, options)
    for key, val in report.items():
        if isinstance(val, (list, tuple, np.ndarray)):
            val = ",".join(fmt(v) for v in val)
        else:
            val = fmt(val)
        lines.append(f"{key}={val}")
    _emit(path, lines)


def _write_scan_csv(path, command, options, rows, extra: dict):
    """rows: iterable of (parameter, value, aux1, aux2)."""
    lines = _header_lines(command, options)
    for key in sorted(extra):
        lines.append(f"# {key}={fmt(extra[key])}")
    lines.append("parameter,value,aux1,aux2")
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    _emit(path, lines)


def _float_list(text: str):
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
        if not all(map(math.isfinite, values)):
            raise ValueError(text)
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated finite numbers, got {text!r}") from exc
    return values


def _read_config(path, command, sub) -> dict:
    """The key=value file at path, each key an option of command's subparser sub."""
    dests = {a.dest for a in sub._actions}
    defaults = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if not sep:
                raise ValidationError(f"malformed config line {raw!r}")
            if key not in dests:
                raise ValidationError(f"unknown config key {key!r} for {command}")
            defaults[key] = val.strip()
    return defaults


def _add_common(p):
    p.add_argument("--config", help="key=value file seeding these options")
    p.add_argument("--out", help="output path (stdout when omitted)")


def build_parser() -> CliParser:
    parser = CliParser(prog="fnls", description=__doc__)
    parser.add_argument("--version", action="version", version=f"fnls {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub  # .choices maps name -> subparser

    p = sub.add_parser("evolve", help="integrate the initial value problem")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--nx", type=int, default=256)
    p.add_argument("--length", type=float, default=2.0 * np.pi)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-final", type=float, default=1.0)
    p.add_argument("--record-every", type=int, default=10)
    p.add_argument("--init", default="gaussian:a=1,sigma=0.5")
    p.add_argument("--dump-state", help="write the final state samples here")

    p = sub.add_parser("picard", help="Duhamel fixed-point iteration")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--nx", type=int, default=256)
    p.add_argument("--length", type=float, default=2.0 * np.pi)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-final", type=float, default=0.1)
    p.add_argument("--iterations", type=int, default=8)
    p.add_argument("--init", default="gaussian:a=0.2,sigma=0.6")

    p = sub.add_parser("scan-trilinear", help="resonant-box norm scan")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--b", type=float, default=0.51)
    p.add_argument("--n", default="16,32,64,128,256")

    p = sub.add_parser("scan-remainder", help="remainder-symbol bound scan")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--n", default="16,32,64,128,256,512,1024")
    p.add_argument("--xi-max", type=float, default=0.5)

    p = sub.add_parser("scan-wavepacket", help="modulated-packet norm scan")
    _add_common(p)
    p.add_argument("--s", default="-0.25,0,0.25")
    p.add_argument("--m", default="16,32,64,128,256,512")
    p.add_argument("--tau", type=float, default=1.0)

    p = sub.add_parser("approx-error", help="NLS-image approximation error scan")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--n", default="8,16,32,64")
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--t-final", type=float, default=0.5)

    p = sub.add_parser("illposed", help="separation (ill-posedness) pipeline")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.005)
    p.add_argument("--t-internal", type=float, default=1200.0)
    p.add_argument("--n-carrier", type=float, default=16.0)
    p.add_argument("--sigma", type=float, default=28.0)

    p = sub.add_parser("verify", help="run the acceptance suite")
    _add_common(p)

    return parser


def _options(args, skip=("command", "config", "out", "dump_state")) -> dict:
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _cmd_evolve(args) -> int:
    grid = make_grid(args.nx, args.length)
    cfg = SimConfig(
        alpha=args.alpha, gamma=args.gamma, dt=args.dt, t_final=args.t_final,
        grid=grid, record_every=args.record_every,
    )
    traj = evolve(initial_field(grid, args.init), cfg)
    u = physical_values(traj)
    masses = mass(traj)
    energies = energy(traj, cfg.alpha, cfg.gamma)
    rows = zip(traj.times, masses, energies, np.max(np.abs(u), axis=-1))
    opts = _options(args)
    extra = {
        "columns": "t,mass,energy,max_abs_u",
        "mass_drift": drift(masses),
        "energy_drift": drift(energies),
    }
    _write_scan_csv(args.out, "evolve", opts, rows, extra)
    if args.dump_state:
        lines = _header_lines("evolve-state", opts)
        lines.append("x,re_u,im_u")
        for xj, uj in zip(grid.x, u[-1]):
            lines.append(f"{fmt(xj)},{fmt(uj.real)},{fmt(uj.imag)}")
        _emit(args.dump_state, lines)
    return 0


def _cmd_picard(args) -> int:
    grid = make_grid(args.nx, args.length)
    cfg = SimConfig(
        alpha=args.alpha, gamma=args.gamma, dt=args.dt, t_final=args.t_final,
        grid=grid, record_every=1,
    )
    result = picard_iterate(initial_field(grid, args.init), cfg, args.iterations)
    report = {
        "iterations": args.iterations,
        "difference_norms": list(result.difference_norms),
        "final_mass": mass(result.final),
    }
    _write_report(args.out, "picard", _options(args), report)
    return 0


def _cmd_scan_trilinear(args) -> int:
    n_list = _float_list(args.n)
    scan = scan_trilinear(args.alpha, args.s, args.b, n_list)
    rows = [
        (n, ratio_v, num_v, fac_v)
        for (n, ratio_v), (_, num_v), (_, fac_v) in zip(
            scan.ratio.points, scan.numerator.points, scan.factors[0].points
        )
    ]
    extra = {
        "columns": "N,ratio,numerator_norm,factor_norm",
        "fitted_slope": scan.ratio.fitted_slope,
        "slope_stderr": scan.ratio.slope_stderr,
        "r_squared": scan.ratio.r_squared,
        "factor_slope": scan.factors[0].fitted_slope,
        "factor_r_squared": scan.factors[0].r_squared,
        "numerator_slope": scan.numerator.fitted_slope,
        "n_dropped": scan.ratio.n_dropped,
    }
    _write_scan_csv(args.out, "scan-trilinear", _options(args), rows, extra)
    return 0


def _cmd_scan_remainder(args) -> int:
    n_list = _float_list(args.n)
    res = scan_remainder(args.alpha, n_list, xi_max=args.xi_max)
    bound = [res.c1 * n ** (-args.alpha / 2.0) for n in res.scan.parameters]
    rows = [
        (n, v, b, v / b)
        for (n, v), b in zip(res.scan.points, bound)
    ]
    extra = {
        "columns": "N,sup_ratio,c1_bound,margin",
        "fitted_slope": res.scan.fitted_slope,
        "slope_stderr": res.scan.slope_stderr,
        "r_squared": res.scan.r_squared,
        "c1": res.c1,
        "bound_ok": res.bound_ok,
        "n_dropped": res.scan.n_dropped,
    }
    _write_scan_csv(args.out, "scan-remainder", _options(args), rows, extra)
    return 0


def _cmd_scan_wavepacket(args) -> int:
    s_list = _float_list(args.s)
    m_list = _float_list(args.m)
    scans = scan_wavepacket(s_list, m_list, tau_scale=args.tau)
    rows = []
    extra = {"columns": "M,norm,s,fitted_slope"}
    for s, scan in sorted(scans.items()):
        extra[f"fitted_slope_s={s:g}"] = scan.fitted_slope
        extra[f"r_squared_s={s:g}"] = scan.r_squared
        for m, v in scan.points:
            rows.append((m, v, s, scan.fitted_slope))
    _write_scan_csv(args.out, "scan-wavepacket", _options(args), rows, extra)
    return 0


def _cmd_approx_error(args) -> int:
    n_list = _float_list(args.n)
    res = run_approximation_error(
        args.alpha, n_list, epsilon=args.epsilon, t_final=args.t_final
    )
    rows = [(n, v, args.alpha, args.epsilon) for n, v in res.scan.points]
    extra = {
        "columns": "N,sup_error,alpha,epsilon",
        "fitted_slope": res.scan.fitted_slope,
        "slope_stderr": res.scan.slope_stderr,
        "r_squared": res.scan.r_squared,
    }
    extra.update({f"cfg_{k}": v for k, v in res.config.items()})
    _write_scan_csv(args.out, "approx-error", _options(args), rows, extra)
    return 0


def _cmd_illposed(args) -> int:
    report = run_illposedness_demo(
        alpha=args.alpha, s=args.s, epsilon=args.epsilon, delta=args.delta,
        t_internal=args.t_internal, n_carrier=args.n_carrier, sigma=args.sigma,
    )
    _write_report(args.out, "illposed", _options(args), report)
    return 0


def _cmd_verify(args) -> int:
    results = run_acceptance(echo=print)
    report = {
        f"criterion_{r.index}": ("PASS" if r.passed else "FAIL") for r in results
    }
    report["all_passed"] = all(r.passed for r in results)
    if args.out:
        _write_report(args.out, "verify", _options(args), report)
    return 0 if report["all_passed"] else 2


COMMANDS = {
    "evolve": _cmd_evolve,
    "picard": _cmd_picard,
    "scan-trilinear": _cmd_scan_trilinear,
    "scan-remainder": _cmd_scan_remainder,
    "scan-wavepacket": _cmd_scan_wavepacket,
    "approx-error": _cmd_approx_error,
    "illposed": _cmd_illposed,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:  # file values become string defaults: flags win, types convert
            sub = parser.subcommands.choices[args.command]
            sub.set_defaults(**_read_config(args.config, args.command, sub))
            args = parser.parse_args(argv)
        for key, val in vars(args).items():  # inf and nan, from a flag or a config file
            if isinstance(val, float) and not math.isfinite(val):
                raise ValidationError(f"--{key.replace('_', '-')} must be finite, got {val}")
        return COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
