#!/usr/bin/env python3
"""coulomb-kit benchmark: time to a checked result, per workload and per layer.

Run from the repository root (the benchmark imports ``src/coulomb_kit`` and
runs the command as its entry point does, with ``PYTHONPATH=src``):

    python3 perfbench/run.py --workload series-grid --seed 1 --seconds 25 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Raw samples go to
``perfbench/out/<workload>-seed<n>-trace<t>.json`` and the spans of a
traced run to ``perfbench/out/trace-<workload>-seed<n>.npz``.  See
``perfbench/README.md`` for the workloads, metrics and estimator.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import calibrate
import tracing
from workloads import WORKLOADS

OUT_DIR = Path("perfbench") / "out"
CLI_TIMEOUT_S = 120
PROBE_PAIRS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_program(src: Path):
    """Import the layer modules from ``src``, refusing any other copy."""
    sys.path.insert(0, str(src))
    m = SimpleNamespace(**{layer: importlib.import_module(f"coulomb_kit.{layer}")
                           for layer in tracing.LAYERS})
    for module in vars(m).values():
        if Path(module.__file__).resolve().parent != (src / "coulomb_kit").resolve():
            raise ImportError(f"{module.__name__} loaded from {module.__file__}, not {src}")
    return m


# ``coulomb-kit`` as its entry point runs it (import coulomb_kit.cli, then
# run(argv)), with the import of the package, the import of the CLI module
# and the run timed inside the process
_TIMED_CLI = ("import sys, time; t0 = time.perf_counter(); import coulomb_kit; "
              "t1 = time.perf_counter(); import coulomb_kit.cli as cli; "
              "t2 = time.perf_counter(); code = cli.run(sys.argv[1:]); "
              "t3 = time.perf_counter(); sys.stdout.flush(); "
              "sys.stderr.write('\\nperfbench-timing %r %r %r\\n' % (t1 - t0, t2 - t1, t3 - t2)); "
              "sys.exit(code)")


def run_cli(env, root, argv):
    """One ``coulomb-kit`` process: (wall s, exit code, stdout text, inside).

    ``inside`` is the (package import s, CLI module import s, run s)
    measured in the process.  A process that died before its timing line
    (it raised) gives None; its exit code and output count it as failed.
    """
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _TIMED_CLI, *argv], env=env,
                          cwd=root, capture_output=True, timeout=CLI_TIMEOUT_S)
    wall = time.perf_counter() - t0
    inside = None
    for line in proc.stderr.decode().splitlines():
        if line.startswith("perfbench-timing "):
            inside = tuple(float(v) for v in line.split()[1:])
    return wall, proc.returncode, proc.stdout.decode(), inside


def same(a, b) -> bool:
    """Bit-for-bit equality of two library results."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    defects: list = field(default_factory=list)   # failures that are not the known fault
    digits: list = field(default_factory=list)
    lib_s: list = field(default_factory=list)
    lib_ratio: list = field(default_factory=list)
    cpu_task_s: list = field(default_factory=list)
    import_s: list = field(default_factory=list)   # per invocation, in the child
    import_ratio: list = field(default_factory=list)  # per invocation, import / spawn task
    cli_s: list = field(default_factory=list)      # per round, summed over invocations
    cli_ratio: list = field(default_factory=list)  # per round, sum of wall / spawn task
    spawn_task_s: list = field(default_factory=list)
    traced_ratio: list = field(default_factory=list)
    interpreter_s: list = field(default_factory=list)  # per invocation
    output_bytes: int = 0

    def defect(self, what: str) -> None:
        if len(self.defects) < 20:
            self.defects.append(what)
        else:
            self.defects[-1] = f"... and more, last: {what}"


def library_passes(wl, tally, tracer=None, pass_counts=None):
    """The round's timed library passes, each between two calibration tasks.

    With a tracer, one more pass runs with every layer wrapped; its
    calibrated time against the untraced passes is the tracing overhead.
    """
    known = wl.known
    cal_prev = calibrate.cpu_task()
    out = None
    for rep in range(wl.lib_reps + (tracer is not None)):
        traced = rep == wl.lib_reps
        first = len(tracer.spans) // 4 if traced else 0
        with tracer.recording("bench.lib_pass") if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            res = wl.solve()
            dt = time.perf_counter() - t0
        cal_next = calibrate.cpu_task()
        ratio = dt / (0.5 * (cal_prev + cal_next))
        cal_prev = cal_next
        if traced:
            tally.traced_ratio.append(ratio)
            if not pass_counts:
                names = tracer.table()[first:, 0]
                pass_counts.update({n: int(np.count_nonzero(names == i))
                                    for i, n in enumerate(tracer.names)})
            if not all(same(a, b) for a, b in zip(out, res)):
                tally.defect("traced library pass differs from the untraced one")
            continue
        out = res
        tally.lib_s.append(dt)
        tally.cpu_task_s.append(cal_next)
        tally.lib_ratio.append(ratio)
        ok, dig = wl.check(out)
        raised = np.array([isinstance(v, Exception) for v in out])
        tally.attempted += len(out)
        tally.failed += int(np.count_nonzero(~ok))
        for i in np.flatnonzero(~ok & (~known | raised)):
            c = wl.calls[i]
            tally.defect(f"{c.kind}{c.args if c.kind != 'kernel' else ''} -> {out[i]!r}")
        tally.digits.append(dig)
    return out


def cli_pass(wl, out, env, root, baseline, tally):
    """The round's CLI invocations, each between two process-start calibration tasks.

    The process's wall time goes against the task's wall time; the import
    of ``coulomb_kit`` inside it (``setup_s``) against the task's import.
    """
    total, ratio, texts = 0.0, 0.0, []
    task_prev = calibrate.spawn_task(env, root)
    for j, call in enumerate(wl.cli):
        wall, code, text, inside = run_cli(env, root, call.argv)
        task_next = calibrate.spawn_task(env, root)
        if inside is not None:
            tally.import_s.append(inside[0])
            tally.import_ratio.append(inside[0] / (0.5 * (task_prev[0] + task_next[0])))
            tally.interpreter_s.append(wall - sum(inside))
        tally.spawn_task_s.append(task_next[1])
        total += wall
        ratio += wall / (0.5 * (task_prev[1] + task_next[1]))
        task_prev = task_next
        texts.append((code, text))
        try:
            content_ok = text == baseline[j][1] and wl.check_cli(j, text, out)
        except (ValueError, KeyError, IndexError, TypeError):  # output does not parse
            content_ok = False
        tally.attempted += 1
        if code != 0 or not content_ok:
            tally.failed += 1
            if not content_ok or not call.known:
                tally.defect(f"coulomb-kit {' '.join(call.argv)} -> exit {code}, "
                             f"output {'ok' if content_ok else 'wrong'}")
    tally.cli_s.append(total)
    tally.cli_ratio.append(ratio)
    return texts


def probe(m, at):
    """Direct calls at the workload's own length, so every layer has spans."""
    x = math.cos(at.theta)
    p = m.coulomb_core.PhysicalParams(at.k, at.beta)
    cfg = m.summation.SummationConfig(l_max=at.l_max, epsilons=at.epsilons,
                                      extrapolation_order=min(4, len(at.epsilons) - 1))
    for _ in range(PROBE_PAIRS):
        # a sweep right before each smoothed sum on the same (x, l_max), so
        # the damped-sum self time is a difference of neighbouring calls
        m.special_functions.legendre_sequence(x, at.l_max)
        m.summation.smoothed_partial_wave_sum(x, p, cfg)
    m.summation.s_matrix_sequence(at.l_max, p)
    m.summation.series_amplitude(at.theta, p, cfg)
    m.coulomb_core.closed_amplitude(at.theta, p)
    m.coulomb_core.closed_partial_wave_sum(x, p)
    m.summation.completeness_kernel(at.kernel_x, at.epsilons[-1], at.l_max)
    m.summation.unregularized_partial_sums(at.theta, p, at.l_max)


def traced_extras(m, wl, texts, tracer, tally):
    """In-process CLI runs (cli layer wrapped) and the probe (all layers wrapped)."""
    nbytes = 0
    with tracer.installed(("cli",)):
        for call, (code, text) in zip(wl.cli, texts):
            buf = io.StringIO()
            with tracer.span("bench.cli_inproc"), contextlib.redirect_stdout(buf):
                try:
                    code_in = m.cli.run(call.argv)
                except Exception:  # exit code 1, as the process that raised it
                    code_in = 1
            if code_in != code or buf.getvalue() != text:
                tally.defect(f"in-process cli.run {call.argv[0]} differs from the process")
            nbytes += len(text.encode())
    tally.output_bytes = nbytes
    with tracer.recording("bench.probe"):
        probe(m, wl.probe)


def median(xs) -> float:
    """Median; NaN without samples (every process that gives them raised)."""
    return float(statistics.median(xs)) if xs else float("nan")


def end_to_end(tally, rss_mib):
    dig = np.concatenate(tally.digits)
    if dig.size == 0:  # every call raised: no digit agrees
        dig = np.zeros(1)
    return {
        "setup_s": (median(tally.import_ratio) * calibrate.SPAWN_IMPORT_REF_S, "s"),
        "solve_s": (median(tally.lib_ratio) * calibrate.CPU_REF_S, "s"),
        "cli_wall_s": (median(tally.cli_ratio) * calibrate.SPAWN_WALL_REF_S, "s"),
        "digits_min": (float(np.min(dig)), "digits"),
        "digits_median": (float(np.median(dig)), "digits"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }


def per_layer(tracer, wl, tally, pass_counts):
    def med(name, scale):
        d = tracer.durations(name)
        return float(np.median(d)) * scale if d.size else float("nan")

    at = wl.probe
    # smoothed_partial_wave_sum less its s_matrix_sequence child and less the
    # Legendre sweep made just before it in the probe
    damped = (tracer.self_times("summation.smoothed_partial_wave_sum", "bench.probe")
              - tracer.durations("special_functions.legendre_sequence", "bench.probe"))
    return {
        "special_functions.legendre_sequence_ms": (med("special_functions.legendre_sequence", 1e3), "ms"),
        "special_functions.log_gamma_us": (med("special_functions.log_gamma", 1e6), "us"),
        "special_functions.log_gamma_calls_per_pass":
            (pass_counts.get("special_functions.log_gamma", 0), "count"),
        "coulomb_core.s_matrix_us": (med("coulomb_core.s_matrix", 1e6), "us"),
        "coulomb_core.s_matrix_calls_per_pass": (pass_counts.get("coulomb_core.s_matrix", 0), "count"),
        "coulomb_core.closed_partial_wave_sum_us": (med("coulomb_core.closed_partial_wave_sum", 1e6), "us"),
        "coulomb_core.closed_amplitude_us": (med("coulomb_core.closed_amplitude", 1e6), "us"),
        "summation.s_matrix_sequence_ms": (med("summation.s_matrix_sequence", 1e3), "ms"),
        "summation.smoothed_partial_wave_sum_ms": (med("summation.smoothed_partial_wave_sum", 1e3), "ms"),
        "summation.series_amplitude_ms": (med("summation.series_amplitude", 1e3), "ms"),
        "summation.damped_sums_self_ms": (float(np.median(damped)) * 1e3, "ms"),
        "summation.completeness_kernel_ms": (med("summation.completeness_kernel", 1e3), "ms"),
        "summation.unregularized_partial_sums_ms": (med("summation.unregularized_partial_sums", 1e3), "ms"),
        "summation.l_max": (at.l_max, "count"),
        "summation.terms_per_eval": ((at.l_max + 1) * len(at.epsilons), "count"),
        "cli.run_ms": (med("cli.run", 1e3), "ms"),
        "cli.emit_table_ms": (med("cli.emit_table", 1e3), "ms"),
        "cli.output_bytes": (tally.output_bytes, "count"),
        "cli.interpreter_s": (median(tally.interpreter_s), "s"),
        "cli.peak_rss_mib": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MiB"),
        "trace.overhead_ratio": (median(tally.traced_ratio) / median(tally.lib_ratio), "ratio"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "coulomb_kit" / "__init__.py").is_file():
        print(f"perfbench: {src / 'coulomb_kit'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        m = load_program(src)
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # one worker thread, here and in every child: the load stays within
    # the two cores, and the timings do not depend on the caller's environment
    os.environ["COULOMB_KIT_THREADS"] = "1"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    wl = WORKLOADS[args.workload](args.seed, m)

    # set-up: compile bytecode, take the first invocation of every command
    # (each later one must match it byte for byte)
    baseline = [run_cli(env, root, c.argv)[1:3] for c in wl.cli]
    wl.prepare()

    tally = Tally()
    tracer = tracing.Tracer() if args.trace else None
    pass_counts = {}
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while True:
        out = library_passes(wl, tally, tracer, pass_counts)
        texts = cli_pass(wl, out, env, root, baseline, tally)
        if tracer is not None:
            traced_extras(m, wl, texts, tracer, tally)
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is None:
        metrics = end_to_end(tally, rss_mib)
    else:
        metrics = per_layer(tracer, wl, tally, pass_counts)
    result = {
        "correct": not tally.defects,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "rounds": rounds, "defects": tally.defects,
                   "samples": {k: v for k, v in vars(tally).items()
                               if k.endswith("_s") or k.endswith("_ratio")}}, fh, indent=1)
    if tracer is not None:
        tracer.save(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz")
    for d in tally.defects:
        print(f"perfbench: defect: {d}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{tally.attempted} attempted, {tally.failed} failed; "
          + ", ".join(f"{k} {v:.4g} {u}" for k, (v, u) in metrics.items()), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
