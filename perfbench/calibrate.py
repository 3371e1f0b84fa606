"""Machine-state calibration for the timed metrics.

On a shared 2-core machine the speed of the same code drifts by a quarter
over minutes, and CPU time drifts with wall time.  Every timed sample is
therefore paired with a fixed task that runs right next to it and shares
none of coulomb-kit's code, and the benchmark reports

    metric = median over samples of (t_sample / t_task) * T_REF,

where T_REF is the task's time on this machine when quiet (frozen below).
The figure keeps its unit and scales one to one with the program's cost;
what it removes is the slowdown that the task suffers too.

* ``cpu_task`` matches the library passes: a scalar Python float
  recurrence stored into a NumPy array, NumPy vector exp/sum over a few
  thousand elements, and scalar scipy log-gamma calls.
* ``spawn_task`` matches process start: a fresh interpreter that imports
  numpy and scipy.special, the two imports that dominate ``import
  coulomb_kit``.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
from scipy.special import loggamma

# quiet-machine times of the two tasks (2-core x86-64 sandbox, Python 3.11,
# numpy 2.4, scipy 1.17); they only set the scale of the reported seconds
CPU_REF_S = 0.025
SPAWN_IMPORT_REF_S = 0.27   # import numpy, scipy.special, timed inside the child
SPAWN_WALL_REF_S = 0.38     # the same child, wall time from spawn to exit

# the spawn task's child: the two imports that dominate ``import coulomb_kit``
_SPAWN_CHILD = ("import time; t0 = time.perf_counter(); import numpy, scipy.special; "
                "print(repr(time.perf_counter() - t0))")


def cpu_task() -> float:
    """Run the fixed compute task; returns its wall time in seconds."""
    t0 = time.perf_counter()
    n = 6000
    out = np.empty(n + 1)
    for _ in range(12):
        out[0] = 1.0
        a, b = 1.0, 0.3
        for l in range(1, n):
            c = ((2 * l + 1) * 0.3 * b - l * a) / (l + 1)
            out[l + 1] = c
            a, b = b, c
    l = np.arange(n + 1.0)
    z = np.exp(0.7j * l)
    s = 0j
    for e in (0.1, 0.05, 0.025, 0.0125, 0.00625, 0.003125):
        for _ in range(24):
            s += np.sum(z * out * np.exp(-e * l))
    for j in range(900):
        s += complex(loggamma(complex(j + 1, -0.7)))
    dt = time.perf_counter() - t0
    if not np.isfinite(s):
        raise ArithmeticError("calibration task lost its result")
    return dt


def spawn_task(env: dict, cwd) -> tuple[float, float]:
    """Run the fixed process-start task: (in-child import s, wall s)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _SPAWN_CHILD],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=120, check=True)
    wall = time.perf_counter() - t0
    return float(proc.stdout), wall
