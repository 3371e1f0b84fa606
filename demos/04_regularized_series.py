"""
Abel smoothing turns the divergent series into the closed form
==============================================================

Damping the partial-wave terms with exp(-eps l) makes the sum converge
for every eps > 0; letting eps -> 0 by polynomial extrapolation then
recovers the closed-form amplitude.  This is the numerical face of the
regularization that the closed form itself embodies.

The per-eps values approach the target roughly linearly in eps, and
Neville extrapolation through the five smallest eps gains several more
digits at no extra summation cost.
"""

import math

from coulomb_kit import (
    PhysicalParams,
    closed_amplitude,
    closed_partial_wave_sum,
    default_config,
    series_amplitude,
    smoothed_partial_wave_sum,
)

p = PhysicalParams(k=1.0, beta=1.0)
cfg = default_config()
print(f"schedule: eps = {', '.join(f'{e:g}' for e in cfg.epsilons)}")
print(f"truncation l_max = {cfg.l_max}, extrapolation order {cfg.extrapolation_order}\n")

theta = math.pi / 2
x = math.cos(theta)
reference = closed_partial_wave_sum(x, p)
report = smoothed_partial_wave_sum(x, p, cfg)

print(f"damped sums at x = cos(pi/2) = 0 (target {reference:.9f}):")
print(f"{'eps':>10} {'damped sum':>28} {'|error|':>12}")
for eps, value in zip(report.epsilons, report.per_epsilon):
    print(f"{eps:>10.6f} {value.real:>13.6f} {value.imag:>+13.6f}i "
          f"{abs(value - reference):>12.2e}")
print(f"{'-> 0':>10} {report.extrapolated.real:>13.6f} "
      f"{report.extrapolated.imag:>+13.6f}i {abs(report.extrapolated - reference):>12.2e}")
print(f"extrapolation noise estimate: {report.extrapolation_noise:.2e}")
print(f"tail estimate at smallest eps: {report.tail_estimate:.2e}\n")

print("series vs closed amplitude across the angular range:")
print(f"{'theta':>10} {'|f| series':>12} {'|f| closed':>12} {'rel error':>12}")
for frac, label in ((1 / 6, "pi/6"), (1 / 3, "pi/3"), (1 / 2, "pi/2"),
                    (2 / 3, "2pi/3"), (1.0, "pi")):
    theta = math.pi * frac
    f_series = series_amplitude(theta, p, cfg).f
    f_closed = closed_amplitude(theta, p).f
    rel = abs(f_series - f_closed) / abs(f_closed)
    print(f"{label:>10} {abs(f_series):>12.6f} {abs(f_closed):>12.6f} {rel:>12.2e}")

print("\nsmaller angles sit closer to the forward singularity and need a")
print("deeper eps schedule (and matching l_max) for the same accuracy;")
print("below pi/36 nothing flags the slower convergence, so check such")
print("angles against the closed form.")

print("\nwithout a config series_amplitude sums the reduced series instead:")
print("(1-x)^4 times the sum (or (1-x)^3 near forward) converges with no")
print("damping, and its own error")
print("estimate bounds the error:")
print(f"{'theta':>10} {'rel error':>12} {'rel estimate':>13}")
for frac, label in ((1 / 6, "pi/6"), (1 / 2, "pi/2"), (1.0, "pi")):
    theta = math.pi * frac
    r = series_amplitude(theta, p)
    f_closed = closed_amplitude(theta, p).f
    print(f"{label:>10} {abs(r.f - f_closed) / abs(f_closed):>12.2e} "
          f"{r.error_estimate / abs(f_closed):>13.2e}")
