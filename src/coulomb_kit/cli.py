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

Library names come from the package, which loads numpy with the series names;
closed-form commands without --spacing log need only the standard library.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import coulomb_kit as kit  # the package object: a relative import cannot name it
from .errors import ConfigError, DomainError, check_length, check_size, check_theta

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
                       help="run the Abel eps schedule truncated at this order "
                       "(default: the reduced series, truncated at 1e-10 relative)")

    def add_angle_flags(p):
        p.add_argument("--theta", type=float, required=True, help="angle (> 0)")
        p.add_argument("--degrees", action="store_true",
                       help="interpret --theta as degrees")

    def add_table(name, help, handler, columns, *groups):
        p = sub.add_parser(name, help=help,
                           epilog="output columns: " + ", ".join(columns))
        p.set_defaults(handler=handler, columns=columns)
        for add_group in groups:
            add_group(p)
        return p

    p = add_table("amplitude", "scattering amplitude over an angle grid", _cmd_amplitude,
                  ("theta", "re_f", "im_f", "abs_f_sq", "method"),
                  add_param_flags, add_grid_flags, add_summation_flags)
    p.add_argument("--method", choices=["closed", "series"], default="closed",
                   help="closed form (default) or regularized series")

    add_table("cross-section", "differential cross section over a grid", _cmd_cross_section,
              ("theta", "dsigma_domega"), add_param_flags, add_grid_flags)

    p = add_table("phase-shifts", "phase shifts and S-matrix elements", _cmd_phase_shifts,
                  ("l", "delta", "re_S", "im_S"), add_param_flags)
    p.add_argument("--lmax", type=int, default=20,
                   help="largest partial-wave index (default 20)")

    p = add_table("partial-sum", "raw partial sums at one angle", _cmd_partial_sum,
                  ("n", "re_sum", "im_sum", "abs_sum"), add_param_flags, add_angle_flags)
    p.add_argument("--lmax", type=int, default=200,
                   help="largest partial sum index (default 200)")

    p = add_table("kernel-demo", "damped completeness kernel over x", _cmd_kernel_demo,
                  ("x", "kernel"))
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

    p = add_table("verify", "series vs closed amplitude at one angle", _cmd_verify,
                  ("theta", "re_closed", "im_closed", "re_series", "im_series", "abs_error",
                   "rel_error"), add_param_flags, add_angle_flags, add_summation_flags)
    p.add_argument("--tol", type=float, default=1e-3,
                   help="relative error bound for success (default 1e-3)")

    # added last, so they close every table's usage line and options list; argparse
    # reads only -12 and -1.5 as values, not -1e6, -inf or -nan
    negative_number = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf(inity)?|nan)$", re.I)
    for p in sub.choices.values():
        p._negative_number_matcher = negative_number
        p.add_argument("--format", choices=["csv", "json"], default="csv",
                       help="output table format (default csv)")
        p.add_argument("--output", default="-", metavar="PATH",
                       help="output file, '-' for stdout (default)")

    return parser


def _resolve_params(args) -> kit.PhysicalParams:
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
        return kit.params_from_physical(args.mu, args.kappa, args.E, hbar)
    if args.beta is None:
        raise ConfigError("missing parameters: give --beta (with optional --k) "
                          "or the physical set --mu/--kappa/--E")
    k = args.k if args.k is not None else 1.0
    return kit.PhysicalParams(k=k, beta=args.beta)


def _angle_scale(args) -> float:
    return math.pi / 180.0 if args.degrees else 1.0


def _grid_thetas(args) -> list:
    """The angle grid in radians: --count, then both ends, then their order."""
    count = check_size(args.count, "--count")
    scale = _angle_scale(args)
    theta_min = check_theta(args.theta_min * scale)
    theta_max = check_theta(args.theta_max * scale)
    if theta_min > theta_max:
        raise ConfigError(
            f"--theta-min ({theta_min!r}) must not exceed --theta-max ({theta_max!r})"
        )
    if args.spacing == LOG_SPACING:
        import numpy as np
        return [float(t) for t in np.geomspace(theta_min, theta_max, count)]
    if count == 1:
        return [theta_min]
    # np.linspace's bits: theta_min + i * step, and the last point is theta_max itself
    step = (theta_max - theta_min) / (count - 1)
    return [theta_min + i * step for i in range(count - 1)] + [theta_max]


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
        import json
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


def _summation_config(args):
    """The Abel schedule at --lmax when it is given, else None: the reduced series."""
    if args.lmax is None:
        return None
    return kit.default_config(l_max=check_size(args.lmax, "--lmax"))


# Each handler validates parameters, then the grid, then the summation
# settings, then its own inputs: that order decides between exit codes 2 and 3.
# It returns its rows, in build_parser's columns, and its exit code; run writes them.
def _cmd_amplitude(args) -> tuple:
    params = _resolve_params(args)
    thetas = _grid_thetas(args)
    scfg = _summation_config(args)
    if args.method == "series":
        results = kit.series_amplitudes(thetas, params, scfg)
    else:
        results = [kit.closed_amplitude(t, params) for t in thetas]
    rows = []
    for r in results:
        try:
            rows.append((r.theta, r.f.real, r.f.imag, abs(r.f) ** 2, r.method))
        except OverflowError:  # f fits a double, |f|^2 does not
            raise OverflowError(f"|f|^2 at theta = {r.theta!r} is not finite") from None
    return rows, EXIT_OK


def _cmd_cross_section(args) -> tuple:
    params = _resolve_params(args)
    return [(t, kit.differential_cross_section(t, params)) for t in _grid_thetas(args)], EXIT_OK


def _cmd_phase_shifts(args) -> tuple:
    params = _resolve_params(args)
    waves = (kit.s_matrix(l, params) for l in range(check_length(args.lmax, "--lmax") + 1))
    return [(pw.l, pw.delta, pw.S.real, pw.S.imag) for pw in waves], EXIT_OK


def _cmd_partial_sum(args) -> tuple:
    params = _resolve_params(args)
    theta = check_theta(args.theta * _angle_scale(args))
    sums = kit.unregularized_partial_sums(theta, params, check_length(args.lmax, "--lmax"))
    return [(n, s.real, s.imag, abs(s)) for n, s in enumerate(sums)], EXIT_OK


def _cmd_kernel_demo(args) -> tuple:
    import numpy as np
    with np.errstate(invalid="ignore", over="ignore"):   # the kernel rejects a non-finite end
        xs = np.linspace(args.x_min, args.x_max, check_size(args.count, "--count"))
    if not (math.isfinite(args.epsilon) and args.epsilon > 0.0):
        raise ConfigError(f"--epsilon must be finite and > 0, got {args.epsilon!r}")
    values = kit.completeness_kernel(xs, args.epsilon, check_length(args.lmax, "--lmax"))
    return [(float(x), float(v)) for x, v in zip(xs, values)], EXIT_OK


def _cmd_verify(args) -> tuple:
    params = _resolve_params(args)
    scfg = _summation_config(args)
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ConfigError(f"--tol must be finite and >= 0, got {args.tol!r}")
    theta = args.theta * _angle_scale(args)
    closed = kit.closed_amplitude(theta, params)
    series = kit.series_amplitude(theta, params, scfg)
    abs_error = abs(series.f - closed.f)
    rel_error = abs_error / abs(closed.f) if closed.f else abs_error
    if not math.isfinite(rel_error):                     # |f| near the smallest double
        raise OverflowError(f"relative error {abs_error:.3e} / {abs(closed.f):.3e} overflows")
    rows = [(theta, closed.f.real, closed.f.imag, series.f.real, series.f.imag,
             abs_error, rel_error)]
    return rows, EXIT_OK if rel_error <= args.tol else EXIT_VERIFY


def run(argv) -> int:
    """Execute one CLI invocation: run its handler, write its table, return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        rows, code = args.handler(args)
        meta = {k: v for k, v in vars(args).items() if k not in ("handler", "columns")}
        emit_table(args.columns, rows, args.format, args.output, meta)
        return code
    except ConfigError as exc:
        print(f"coulomb-kit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, ArithmeticError) as exc:
        print(f"coulomb-kit: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"coulomb-kit: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
