"""Command-line front end: parameter sweeps and machine-readable tables.

Subcommands
-----------
amplitude      f(theta) over an angle grid (closed form or regularized series)
cross-section  |f(theta)|^2 over an angle grid
phase-shifts   l, delta_l and S_l for l = 0 .. lmax
partial-sum    raw (divergent) partial sums at a single angle
kernel-demo    damped completeness kernel over an x grid
verify         series vs closed-form amplitude at one angle

Parameters are given either directly (--k, --beta) or physically
(--mu, --kappa, --E, optionally --hbar); mixing the two styles is a
usage error.  Angles are radians unless --degrees is passed.

Output is one table per invocation, CSV (17-significant-digit scientific
notation) or JSON ({"meta": {...}, "rows": [...]} with every flag echoed
in meta), to stdout or --output PATH.  Identical invocations produce
byte-identical output.

Exit codes: 0 success, 2 usage error, 3 domain error, 4 verification
failure, 5 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import coulomb_core as core
from . import summation as summ
from .errors import ConfigError, DomainError, check_order, check_theta

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4
EXIT_IO = 5

LINEAR_SPACING = "linear"
LOG_SPACING = "log"

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coulomb-kit",
        description="Coulomb scattering amplitudes, phase shifts and "
        "regularized partial-wave sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--format", choices=["csv", "json"], default="csv",
                       help="output table format (default csv)")
        p.add_argument("--output", default="-", metavar="PATH",
                       help="output file, '-' for stdout (default)")

    def add_param_flags(p):
        g = p.add_argument_group("parameters (direct: --k/--beta, or "
                                 "physical: --mu/--kappa/--E/--hbar)")
        g.add_argument("--k", type=float, default=None, help="wavenumber (> 0)")
        g.add_argument("--beta", type=float, default=None,
                       help="dimensionless Coulomb strength (>0 attractive)")
        g.add_argument("--mu", type=float, default=None, help="reduced mass (> 0)")
        g.add_argument("--kappa", type=float, default=None,
                       help="coupling, energy*length (>0 attractive)")
        g.add_argument("--E", type=float, default=None, help="energy (> 0)")
        g.add_argument("--hbar", type=float, default=None,
                       help="hbar (physical style only; default 1)")

    def add_grid_flags(p):
        g = p.add_argument_group("angle grid")
        g.add_argument("--theta-min", type=float, required=True,
                       help="smallest angle (> 0)")
        g.add_argument("--theta-max", type=float, required=True,
                       help="largest angle (<= pi)")
        g.add_argument("--count", type=int, default=64,
                       help="number of grid angles (default 64)")
        g.add_argument("--spacing", choices=[LINEAR_SPACING, LOG_SPACING],
                       default=LINEAR_SPACING, help="grid spacing (default linear)")
        g.add_argument("--degrees", action="store_true",
                       help="interpret angles as degrees")

    def add_summation_flags(p):
        g = p.add_argument_group("summation")
        g.add_argument("--lmax", type=int, default=None,
                       help="truncation order (default: matched to the eps schedule)")
        g.add_argument("--eps-first", type=float, default=0.1,
                       help="largest smoothing parameter (default 0.1)")
        g.add_argument("--eps-ratio", type=float, default=2.0,
                       help="geometric ratio between eps values (default 2)")
        g.add_argument("--eps-count", type=int, default=6,
                       help="number of eps values (default 6)")
        g.add_argument("--extrapolation-order", type=int, default=4,
                       help="polynomial extrapolation order (default 4)")

    p = sub.add_parser(
        "amplitude", help="scattering amplitude over an angle grid",
        epilog="output columns: theta, re_f, im_f, abs_f_sq, method")
    add_param_flags(p)
    add_grid_flags(p)
    add_summation_flags(p)
    p.add_argument("--method", choices=["closed", "series"], default="closed",
                   help="closed form (default) or regularized series")
    add_output_flags(p)
    p.set_defaults(handler=_cmd_amplitude)

    p = sub.add_parser(
        "cross-section", help="differential cross section over a grid",
        epilog="output columns: theta, dsigma_domega")
    add_param_flags(p)
    add_grid_flags(p)
    add_output_flags(p)
    p.set_defaults(handler=_cmd_cross_section)

    p = sub.add_parser(
        "phase-shifts", help="phase shifts and S-matrix elements",
        epilog="output columns: l, delta, re_S, im_S")
    add_param_flags(p)
    p.add_argument("--lmax", type=int, default=20,
                   help="largest partial-wave index (default 20)")
    add_output_flags(p)
    p.set_defaults(handler=_cmd_phase_shifts)

    p = sub.add_parser(
        "partial-sum", help="raw partial sums at one angle",
        epilog="output columns: n, re_sum, im_sum, abs_sum")
    add_param_flags(p)
    p.add_argument("--theta", type=float, required=True, help="angle (> 0)")
    p.add_argument("--degrees", action="store_true",
                   help="interpret --theta as degrees")
    p.add_argument("--lmax", type=int, default=200,
                   help="largest partial sum index (default 200)")
    add_output_flags(p)
    p.set_defaults(handler=_cmd_partial_sum)

    p = sub.add_parser(
        "kernel-demo", help="damped completeness kernel over x",
        epilog="output columns: x, kernel")
    p.add_argument("--epsilon", type=float, required=True,
                   help="smoothing parameter (> 0)")
    p.add_argument("--lmax", type=int, default=500,
                   help="truncation order (default 500)")
    p.add_argument("--x-min", type=float, default=-1.0,
                   help="smallest abscissa (default -1)")
    p.add_argument("--x-max", type=float, default=1.0,
                   help="largest abscissa (default 1)")
    p.add_argument("--count", type=int, default=201,
                   help="number of abscissae (default 201)")
    add_output_flags(p)
    p.set_defaults(handler=_cmd_kernel_demo)

    p = sub.add_parser(
        "verify", help="series vs closed amplitude at one angle",
        epilog="output columns: theta, re_closed, im_closed, re_series, "
               "im_series, abs_error, rel_error")
    add_param_flags(p)
    p.add_argument("--theta", type=float, required=True, help="angle (> 0)")
    p.add_argument("--degrees", action="store_true",
                   help="interpret --theta as degrees")
    add_summation_flags(p)
    p.add_argument("--tol", type=float, default=1e-3,
                   help="relative error bound for success (default 1e-3)")
    add_output_flags(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def _resolve_params(args) -> core.PhysicalParams:
    physical = {"mu": args.mu, "kappa": args.kappa, "E": args.E, "hbar": args.hbar}
    direct = {"k": args.k, "beta": args.beta}
    physical_given = [n for n, v in physical.items() if v is not None]
    direct_given = [n for n, v in direct.items() if v is not None]
    if physical_given and direct_given:
        raise ConfigError(
            "conflicting parameterizations: give either --k/--beta or "
            f"--mu/--kappa/--E, not both (got --{', --'.join(direct_given)} "
            f"with --{', --'.join(physical_given)})"
        )
    if physical_given:
        missing = [n for n in ("mu", "kappa", "E") if physical[n] is None]
        if missing:
            raise ConfigError(
                "physical parameterization needs --mu, --kappa and --E "
                f"(missing --{', --'.join(missing)})"
            )
        hbar = physical["hbar"] if physical["hbar"] is not None else 1.0
        return core.params_from_physical(args.mu, args.kappa, args.E, hbar)
    if args.beta is None:
        raise ConfigError("missing parameters: give --beta (with optional --k) "
                          "or the physical set --mu/--kappa/--E")
    k = args.k if args.k is not None else 1.0
    return core.PhysicalParams(k=k, beta=args.beta)


def _angle_scale(args) -> float:
    return math.pi / 180.0 if getattr(args, "degrees", False) else 1.0


def _grid_thetas(args) -> list:
    """The angle grid in radians: --count, then both ends, then their order."""
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    scale = _angle_scale(args)
    theta_min = check_theta(args.theta_min * scale)
    theta_max = check_theta(args.theta_max * scale)
    if theta_min > theta_max:
        raise ConfigError(
            f"--theta-min ({theta_min!r}) must not exceed --theta-max ({theta_max!r})"
        )
    spaced = np.geomspace if args.spacing == LOG_SPACING else np.linspace
    return [float(t) for t in spaced(theta_min, theta_max, args.count)]


def _summation_config(args) -> summ.SummationConfig:
    return summ.default_config(
        eps_first=args.eps_first,
        eps_ratio=args.eps_ratio,
        eps_count=args.eps_count,
        extrapolation_order=args.extrapolation_order,
        l_max=args.lmax,
    )


def _format_cell(value) -> str:
    # rows hold int, str and float (np.float64 included, a float subclass)
    return f"{float(value):.16e}" if isinstance(value, float) else str(value)


def emit_table(columns, rows, output_format: str, sink: str, meta: dict) -> None:
    """Write one table to ``sink`` ('-' for stdout).

    CSV: header row, comma separator, '\\n' newlines, floats in
    17-significant-digit scientific notation (exact round-trip).
    JSON: single object {"meta": {...}, "rows": [...]} with one object
    per row; meta echoes every flag of the invocation verbatim.
    """
    if output_format == "json":
        payload = {"meta": meta, "rows": [dict(zip(columns, row)) for row in rows]}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [",".join(columns)]
        lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if sink == "-":
        sys.stdout.write(text)
    else:
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit(args, columns, rows) -> None:
    """Write the table, echoing every flag of the invocation in meta."""
    meta = {k: v for k, v in vars(args).items() if k != "handler"}
    emit_table(columns, rows, args.format, args.output, meta)


# Each handler validates parameters, then the grid, then the summation
# settings, then its own inputs: that order decides between exit codes 2 and 3.
def _cmd_amplitude(args) -> int:
    params = _resolve_params(args)
    thetas = _grid_thetas(args)
    scfg = _summation_config(args)
    if args.method == "series":
        results = summ.series_amplitudes(thetas, params, scfg)
    else:
        results = [core.closed_amplitude(t, params) for t in thetas]
    rows = [(r.theta, r.f.real, r.f.imag, abs(r.f) ** 2, r.method) for r in results]
    _emit(args, ("theta", "re_f", "im_f", "abs_f_sq", "method"), rows)
    return EXIT_OK


def _cmd_cross_section(args) -> int:
    params = _resolve_params(args)
    rows = [(t, core.differential_cross_section(t, params)) for t in _grid_thetas(args)]
    _emit(args, ("theta", "dsigma_domega"), rows)
    return EXIT_OK


def _cmd_phase_shifts(args) -> int:
    params = _resolve_params(args)
    rows = []
    for l in range(check_order(args.lmax, "--lmax") + 1):
        pw = core.s_matrix(l, params)
        rows.append((pw.l, pw.delta, pw.S.real, pw.S.imag))
    _emit(args, ("l", "delta", "re_S", "im_S"), rows)
    return EXIT_OK


def _cmd_partial_sum(args) -> int:
    params = _resolve_params(args)
    theta = args.theta * _angle_scale(args)
    sums = summ.unregularized_partial_sums(theta, params, args.lmax)
    rows = [(n, s.real, s.imag, abs(s)) for n, s in enumerate(sums)]
    _emit(args, ("n", "re_sum", "im_sum", "abs_sum"), rows)
    return EXIT_OK


def _cmd_kernel_demo(args) -> int:
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    xs = np.linspace(args.x_min, args.x_max, args.count)
    values = summ.completeness_kernel(xs, args.epsilon, args.lmax)
    rows = [(float(x), float(v)) for x, v in zip(xs, values)]
    _emit(args, ("x", "kernel"), rows)
    return EXIT_OK


def _cmd_verify(args) -> int:
    params = _resolve_params(args)
    scfg = _summation_config(args)
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ConfigError(f"--tol must be finite and >= 0, got {args.tol!r}")
    theta = args.theta * _angle_scale(args)
    closed = core.closed_amplitude(theta, params)
    series = summ.series_amplitude(theta, params, scfg)
    abs_error = abs(series.f - closed.f)
    denom = abs(closed.f)
    rel_error = abs_error / denom if denom > 0.0 else abs_error
    rows = [(
        theta, closed.f.real, closed.f.imag, series.f.real, series.f.imag,
        abs_error, rel_error,
    )]
    _emit(args, ("theta", "re_closed", "im_closed", "re_series", "im_series",
                 "abs_error", "rel_error"), rows)
    return EXIT_OK if rel_error <= args.tol else EXIT_VERIFY


def run(argv) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"coulomb-kit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, OverflowError) as exc:
        print(f"coulomb-kit: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"coulomb-kit: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
