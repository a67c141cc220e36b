"""Command-line front end.

Subcommands: evolve, picard, scan-trilinear, scan-remainder, scan-wavepacket,
approx-error, illposed, verify.  Every output file starts with a comment
header carrying the artifact version and the fully resolved configuration;
scan CSVs use the fixed column order parameter,value,aux1,aux2 and reports
are one key=value per line.  A flat key=value config file can seed any
subcommand's options; explicit flags win.  Exit codes: 0 success, 1
validation/usage error, 2 runtime failure (blow-up, resolution, failed
verify gate, out of memory).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import math
import sys

import numpy as np

from . import __version__
from .errors import ValidationError
from .spectral import Field, make_grid
from .norms import mass
from .evolution import SimConfig, picard_iterate
from .experiments import (
    drift,
    initial_field,
    summarize_records,
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


def _emit(path, lines) -> None:
    """Write each of the lines, newline-terminated, to path (stdout when
    empty) as it comes: no artifact's text is held whole."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(line + "\n" for line in lines)


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
    """rows: iterable of (parameter, value, aux1, aux2), each written as it comes."""
    lines = _header_lines(command, options)
    for key in sorted(extra):
        lines.append(f"# {key}={fmt(extra[key])}")
    lines.append("parameter,value,aux1,aux2")
    _emit(path, itertools.chain(lines, (",".join(fmt(v) for v in row) for row in rows)))


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


def _add_command(sub, name: str, summary: str, handler):
    """sub's subparser name, with the --config and --out of every command and its handler."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--config", help="key=value file seeding these options")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(handler=handler)
    return p


def _add_run_options(p, t_final: float, init: str):
    """The options of one evolution run, which evolve and picard share."""
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--nx", type=int, default=256)
    p.add_argument("--length", type=float, default=2.0 * np.pi)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-final", type=float, default=t_final)
    p.add_argument("--init", default=init)


def build_parser() -> CliParser:
    parser = CliParser(prog="fnls", description=__doc__)
    parser.add_argument("--version", action="version", version=f"fnls {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub  # .choices maps name -> subparser

    p = _add_command(sub, "evolve", "integrate the initial value problem", _cmd_evolve)
    _add_run_options(p, t_final=1.0, init="gaussian:a=1,sigma=0.5")
    p.add_argument("--record-every", type=int, default=10)
    p.add_argument("--dump-state", help="write the final state samples here")

    p = _add_command(sub, "picard", "Duhamel fixed-point iteration", _cmd_picard)
    _add_run_options(p, t_final=0.1, init="gaussian:a=0.2,sigma=0.6")
    p.add_argument("--iterations", type=int, default=8)

    p = _add_command(sub, "scan-trilinear", "resonant-box norm scan", _cmd_scan_trilinear)
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--b", type=float, default=0.51)
    p.add_argument("--n", default="16,32,64,128,256")

    p = _add_command(sub, "scan-remainder", "remainder-symbol bound scan", _cmd_scan_remainder)
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--n", default="16,32,64,128,256,512,1024")
    p.add_argument("--xi-max", type=float, default=0.5)

    p = _add_command(sub, "scan-wavepacket", "modulated-packet norm scan", _cmd_scan_wavepacket)
    p.add_argument("--s", default="-0.25,0,0.25")
    p.add_argument("--m", default="16,32,64,128,256,512")
    p.add_argument("--tau", type=float, default=1.0)

    p = _add_command(sub, "approx-error", "NLS-image approximation error scan", _cmd_approx_error)
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--n", default="8,16,32,64")
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--t-final", type=float, default=0.5)

    p = _add_command(sub, "illposed", "separation (ill-posedness) pipeline", _cmd_illposed)
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.005)
    p.add_argument("--t-internal", type=float, default=1200.0)
    p.add_argument("--n-carrier", type=float, default=16.0)
    p.add_argument("--sigma", type=float, default=28.0)

    _add_command(sub, "verify", "run the acceptance suite", _cmd_verify)

    return parser


def _options(args, skip=("command", "handler", "config", "out", "dump_state")) -> dict:
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _run_inputs(args, record_every: int) -> tuple[SimConfig, Field]:
    """The config and initial data of evolve's and picard's run options."""
    grid = make_grid(args.nx, args.length)
    cfg = SimConfig(
        alpha=args.alpha, gamma=args.gamma, dt=args.dt, t_final=args.t_final,
        grid=grid, record_every=record_every,
    )
    return cfg, initial_field(grid, args.init)


def _fit_fields(scan) -> dict:
    """A fitted scan's slope, its standard error and r^2, as header fields."""
    return {key: getattr(scan, key) for key in ("fitted_slope", "slope_stderr", "r_squared")}


def _cmd_evolve(args) -> int:
    cfg, phi = _run_inputs(args, args.record_every)
    times, masses, energies, peaks, last = summarize_records(phi, cfg)
    opts = _options(args)
    extra = {
        "columns": "t,mass,energy,max_abs_u",
        "mass_drift": drift(masses),
        "energy_drift": drift(energies),
    }
    _write_scan_csv(args.out, "evolve", opts, zip(times, masses, energies, peaks), extra)
    if args.dump_state:
        lines = _header_lines("evolve-state", opts) + ["x,re_u,im_u"]
        samples = (f"{fmt(xj)},{fmt(uj.real)},{fmt(uj.imag)}" for xj, uj in zip(cfg.grid.x, last))
        _emit(args.dump_state, itertools.chain(lines, samples))
    return 0


def _cmd_picard(args) -> int:
    cfg, phi = _run_inputs(args, 1)
    result = picard_iterate(phi, cfg, args.iterations)
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
        **_fit_fields(scan.ratio),
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
        **_fit_fields(res.scan),
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
        **_fit_fields(res.scan),
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
        parser = sub = None  # the parser's reference cycles, about 90 KB, go
        gc.collect()  # before the command runs: no admission prices them
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"runtime failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
