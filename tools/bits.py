#!/usr/bin/env python3
"""Same-bits record: one sha256 per set of outputs that a change must keep.

    python3 tools/bits.py > before.txt        # on one checkout
    python3 tools/bits.py > after.txt         # on another
    diff before.txt after.txt                 # empty: every bit is kept

Each line is ``sha256  label``.  Two sets are hashed:

* the CLI: stdout, stderr and exit code of every call in CLI_CALLS (the
  README's examples, then edge cases), each run as
  ``python -m coulomb_kit.cli`` in its own process;
* the library: every group in GROUPS, run in a fresh interpreter twice
  over, first with every memo cold and then warm, one line each.

A float is hashed by its repr, which round-trips every bit, an array by
its dtype, shape and bytes, and an exception by its type and message.
Standard library only, plus the package from this checkout's ``src/``
(numpy comes with it).  It takes about 10 s on a 2-core x86-64 machine.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

_ARGS = ["--k", "1", "--beta", "1", "--theta", "1.5707963"]
CLI_CALLS = [
    # the README's examples
    ["amplitude", "--k", "1", "--beta", "1", "--theta-min", "0.1", "--theta-max", "3.14159",
     "--count", "64", "--format", "csv"],
    ["cross-section", "--mu", "2", "--kappa", "-3", "--E", "1", "--theta-min", "0.2",
     "--theta-max", "3.1", "--count", "50"],
    ["phase-shifts", "--beta", "2", "--lmax", "20", "--format", "json"],
    ["partial-sum", *_ARGS, "--lmax", "200"],
    ["kernel-demo", "--epsilon", "0.05", "--lmax", "500", "--count", "201"],
    ["verify", *_ARGS, "--lmax", "4000"],
    # edge cases
    *(["kernel-demo", "--epsilon", "0.05", "--lmax", "500", "--count", n]
      for n in ("1", "23", "24")),
    ["verify", *_ARGS, "--lmax", "800"],                                    # exit 4
    ["amplitude", "--k", "2", "--beta", "-0.7", "--theta-min", "0.5", "--theta-max", "3.14159",
     "--count", "40", "--method", "series", "--lmax", "2000", "--format", "json"],
    ["phase-shifts", "--beta=-1e6"],
    ["phase-shifts", "--beta", "1", "--format", "xml"],                     # exit 2
    ["amplitude", "--k", "1", "--beta", "1e5", "--theta-min", "1", "--theta-max", "2",
     "--count", "3", "--method", "series"],                                 # exit 3
    ["partial-sum", "--k", "1e-320", "--beta", "1", "--theta", "1"],        # exit 3
]


def _feed(h, value) -> None:
    if hasattr(value, "tobytes"):
        h.update(f"{value.dtype}{value.shape}".encode() + value.tobytes())
    else:
        h.update(repr(value).encode())


def _outcome(h, call, *args) -> None:
    """Hash call(*args), or the type and message of what it raises."""
    try:
        _feed(h, call(*args))
    except Exception as exc:  # noqa: BLE001 - the message is the output
        h.update(f"{type(exc).__name__}: {exc}".encode())


def _kernels(kit, np, h):
    for n in (1, 23, 24, 25, 33, 201, 320):
        for L in (5, 500, 4095, 20000):
            for eps in (0.05, 1e-3):
                _outcome(h, kit.completeness_kernel, np.linspace(-1.0, 1.0, n), eps, L)


def _abel_reports(kit, np, h):
    for L in (50, 500, 5888):
        cfg = kit.default_config(L)
        for beta in (-2.5, 0.05, 1.0, 4.0):
            p = kit.PhysicalParams(k=1.0, beta=beta)
            for x in (-1.0, -0.4, 0.0, 0.6, 0.97):
                _outcome(h, kit.smoothed_partial_wave_sum, x, p, cfg)
                _outcome(h, kit.smoothed_auxiliary_sum, x, p, cfg)


def _abel_grids(kit, np, h):
    thetas = np.linspace(math.pi / 6, math.pi, 40).tolist()
    for k, beta in ((1.0, 1.0), (0.5, -3.0), (2.0, 0.2)):
        _outcome(h, kit.series_amplitudes, thetas, kit.PhysicalParams(k=k, beta=beta),
                 kit.default_config())


def _ladders(kit, np, h):
    sizes = [5e-324, 1e-310, 2.0**-1022] + np.geomspace(1e-300, 1e6, 401).tolist()
    for beta in sizes + [-b for b in sizes]:
        _outcome(h, kit.s_matrix_sequence, 1024, kit.PhysicalParams(k=1.0, beta=beta))


def _default_series(kit, np, h):
    thetas = np.geomspace(0.01, math.pi, 24).tolist()
    for beta in (1.0, -1.0, 30.0, -30.0):
        p = kit.PhysicalParams(k=1.0, beta=beta)
        for theta in thetas:
            _outcome(h, kit.series_amplitude, theta, p)


def _fresh_betas(kit, np, h):
    # the beta-scan shape: a fresh beta for every default-engine angle, so every call builds
    thetas = np.linspace(math.pi / 6, 0.98 * math.pi, 48).tolist()
    betas = np.geomspace(0.05, 5.0, 48) * np.resize([1.0, -1.0], 48)
    for theta, beta in zip(thetas, np.random.default_rng(1).permutation(betas).tolist()):
        _outcome(h, kit.series_amplitude, theta, kit.PhysicalParams(k=1.0, beta=beta))


GROUPS = {"kernels": _kernels, "abel-reports": _abel_reports, "abel-grids": _abel_grids,
          "ladders": _ladders, "default-series": _default_series, "fresh-betas": _fresh_betas}


def _group(name: str) -> None:
    """Run one group twice in this interpreter, cold then warm, one line each."""
    import numpy as np

    import coulomb_kit as kit
    for memo in ("cold", "warm"):
        h = hashlib.sha256()
        GROUPS[name](kit, np, h)
        print(f"{h.hexdigest()}  library {name} ({memo})", flush=True)


def main() -> int:
    if sys.argv[1:2] == ["--group"]:
        _group(sys.argv[2])
        return 0
    for argv in CLI_CALLS:
        proc = subprocess.run([sys.executable, "-m", "coulomb_kit.cli", *argv], env=ENV,
                              capture_output=True)
        h = hashlib.sha256(proc.stdout + b"\0" + proc.stderr + f"\0{proc.returncode}".encode())
        print(f"{h.hexdigest()}  cli {' '.join(argv)} (exit {proc.returncode})", flush=True)
    for name in GROUPS:
        subprocess.run([sys.executable, __file__, "--group", name], env=ENV, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
