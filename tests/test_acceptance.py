"""Acceptance suite: one test per criterion, run at the stated tolerances.

The conftest hook prints one PASS/FAIL line per criterion at the end of
the session.  Criteria 6 and 8 bound a discretisation and a regularised
kernel; they assert the bound the mathematics gives, derived in each
test's docstring, rather than a flat number.
"""

import math
import time

import numpy as np

from coulomb_kit import cli
from coulomb_kit.coulomb_core import (
    PhysicalParams,
    closed_amplitude,
    closed_auxiliary_sum,
    closed_partial_wave_sum,
    differential_cross_section,
    ode_residual,
    s_matrix,
)
from coulomb_kit.special_functions import (
    legendre_derivative_identity_residual,
    legendre_sequence,
)
from coulomb_kit.summation import (
    completeness_kernel,
    default_config,
    s_matrix_sequence,
    series_amplitude,
    smoothed_auxiliary_sum,
    unregularized_partial_sums,
)

THETA_GRID_100 = np.linspace(math.pi / 36, math.pi, 100)
BETAS = (0.25, -0.25, 1.0, -1.0, 5.0, -5.0)
KS = (0.5, 1.0, 3.0)


def test_c01_closed_form_modulus_identity():
    """criterion 1: |f| = |beta|/(2k sin^2(theta/2)) to 1e-12 relative, < 1 s"""
    start = time.perf_counter()
    for beta in BETAS:
        for k in KS:
            p = PhysicalParams(k=k, beta=beta)
            for theta in THETA_GRID_100:
                f = closed_amplitude(float(theta), p).f
                ref = abs(beta) / (2 * k * math.sin(theta / 2) ** 2)
                assert abs(abs(f) - ref) / abs(f) <= 1e-12, (beta, k, theta)
    assert time.perf_counter() - start < 1.0


def test_c02_rutherford_reduction():
    """criterion 2: |f|^2 = beta^2/(4 k^2 sin^4(theta/2)) to 1e-12 relative, < 1 s"""
    start = time.perf_counter()
    for beta in BETAS:
        for k in KS:
            p = PhysicalParams(k=k, beta=beta)
            for theta in THETA_GRID_100:
                dcs = differential_cross_section(float(theta), p)
                ref = beta**2 / (4 * k**2 * math.sin(theta / 2) ** 4)
                assert abs(dcs - ref) / ref <= 1e-12, (beta, k, theta)
    assert time.perf_counter() - start < 1.0


def test_c03_series_vs_closed_oracle():
    """criterion 3: regularized series matches closed amplitude to 1e-3, < 30 s"""
    start = time.perf_counter()
    cfg = default_config()
    for k, beta in ((1.0, 1.0), (1.0, -1.0), (2.0, 0.5)):
        p = PhysicalParams(k=k, beta=beta)
        for theta in (math.pi / 6, math.pi / 3, math.pi / 2,
                      2 * math.pi / 3, math.pi):
            f_series = series_amplitude(theta, p, cfg).f
            f_closed = closed_amplitude(theta, p).f
            rel = abs(f_series - f_closed) / abs(f_closed)
            assert rel <= 1e-3, (k, beta, theta, rel)
    assert time.perf_counter() - start < 30.0


def test_c04_ladder_recurrences_and_drift():
    """criterion 4: ladder residuals <= 1e-12 relative, drift <= 1e-10, < 1 s"""
    start = time.perf_counter()
    for beta in (0.1, -0.1, 1.0, -1.0, 5.0, -5.0):
        p = PhysicalParams(k=1.0, beta=beta)
        S = s_matrix_sequence(501, p)
        l = np.arange(501)
        up_lhs = (l + 1 - 1j * beta) * S[:-1]
        up_rhs = (l + 1 + 1j * beta) * S[1:]
        assert np.max(np.abs(up_lhs - up_rhs) / np.abs(up_lhs)) <= 1e-12, beta
        ld = np.arange(1, 502)
        down_lhs = (ld + 1j * beta) * S[1:]
        down_rhs = (ld - 1j * beta) * S[:-1]
        assert np.max(np.abs(down_lhs - down_rhs) / np.abs(down_lhs)) <= 1e-12, beta
        for l_check in range(64, 502, 64):
            drift = abs(S[l_check] - s_matrix(l_check, p).S)
            assert drift <= 1e-10, (beta, l_check)
    assert time.perf_counter() - start < 1.0


def test_c05_unitarity_and_phase():
    """criterion 5: ||S_l|-1| <= 1e-13 and |S_l - exp(2i delta_l)| <= 1e-12"""
    import cmath
    for beta in (0.1, -0.1, 1.0, -1.0, 5.0, -5.0):
        p = PhysicalParams(k=1.0, beta=beta)
        for l in range(0, 501):
            pw = s_matrix(l, p)
            assert abs(abs(pw.S) - 1.0) <= 1e-13, (beta, l)
            assert abs(pw.S - cmath.exp(2j * pw.delta)) <= 1e-12, (beta, l)


def test_c06_ode_residual():
    """criterion 6: ODE residual at h = 1e-4 is its O(h^2) truncation term to 1%; exact G' to 1e-13

    With u = (1-x)/2, G(x) = S_0 - 2 S_0 u^(i beta) has third derivative
    of modulus 2 |beta| sqrt((1+beta^2)(4+beta^2)) / (1-x)^3.  The central
    difference errs by h^2/6 times that, so the residual is
    T = (h^2/3) |beta| sqrt((1+beta^2)(4+beta^2)) / (1-x)^2 + O(h^4),
    from 2.9e-9 to 1.1e-5 on this grid.  The O(h^4) and rounding parts
    stay below 1% of T plus 1e-11, and the residual quarters when h
    halves.  With the exact derivative (closed_partial_wave_sum) in place
    of the difference quotient the ODE holds to rounding.
    """
    h = 1e-4
    for beta in (1.0, -1.0, 3.0, -3.0):
        p = PhysicalParams(k=1.0, beta=beta)
        S0 = s_matrix(0, p).S
        for x in (-0.9, -0.5, 0.0, 0.5, 0.9):
            r_h = ode_residual(x, p, h)
            r_half = ode_residual(x, p, h / 2)
            if r_h > 1e-8:  # decay measurable above rounding noise
                ratio = r_h / r_half
                assert 3.5 <= ratio <= 4.5, (beta, x, ratio)
            truncation = (h**2 / 3 * abs(beta)
                          * math.sqrt((1 + beta**2) * (4 + beta**2)) / (1 - x) ** 2)
            assert abs(r_h - truncation) <= 1e-2 * truncation + 1e-11, (
                beta, x, r_h, truncation)
            exact = abs((1 - x) * closed_partial_wave_sum(x, p)
                        + 1j * beta * closed_auxiliary_sum(x, p) - 1j * beta * S0)
            assert exact <= 1e-13, (beta, x, exact)


def test_c07_auxiliary_boundary_condition():
    """criterion 7: damped auxiliary sums at x = -1 are exactly -S_0"""
    cfg = default_config(l_max=2000)
    for beta in (0.5, -1.0, 2.0, 5.0):
        p = PhysicalParams(k=1.0, beta=beta)
        S0 = s_matrix(0, p).S
        report = smoothed_auxiliary_sum(-1.0, p, cfg)
        for value in report.per_epsilon:
            assert value == -S0, beta
        assert abs(closed_auxiliary_sum(-1.0, p) - (-S0)) <= 1e-14, beta


def test_c08_completeness_kernel():
    """criterion 8: kernel integrates to 2 (1e-6), equals its closed form (1e-10), concentrates at x = 1

    With t = e^-eps, the generating function of P_l gives the damped sum
    in closed form, K(x) = (1-t^2) / (1-2xt+t^2)^(3/2).  At x = 1,
    K = (1+t)/(1-t)^2 grows on every halving of eps; at a fixed x < 1,
    K peaks near eps = sqrt(1-x) and then decays to 0 (at x = 0.999 the
    sweep passes that peak: 160, 340, 376, 251).  So the mass concentrates
    at the forward direction, as a delta does.  At L = 4000 the dropped
    tail is below e^-50, so the computed sum must equal K to rounding.
    """
    nodes, weights = np.polynomial.legendre.leggauss(256)
    eps_sweep = (0.1, 0.05, 0.025, 0.0125)
    for eps in eps_sweep:
        # L = 500 keeps the integrand inside the quadrature's exact degree
        values = completeness_kernel(nodes, eps, 500)
        integral = float(np.sum(weights * values))
        assert abs(integral - 2.0) <= 1e-6, eps
    xs = (1.0, 0.999, 0.9)
    sweep = np.array([completeness_kernel(xs, eps, 4000) for eps in eps_sweep])
    for eps, values in zip(eps_sweep, sweep):
        t = math.exp(-eps)
        for x, value in zip(xs, values):
            closed = (1 - t**2) / (1 - 2 * x * t + t**2) ** 1.5
            assert abs(value - closed) <= 1e-10 * closed, (eps, x, value, closed)
    at_forward, at_fixed_angle = sweep[:, 0], sweep[:, 2]
    assert np.all(np.diff(at_forward) > 0), f"K(1) does not grow: {at_forward}"
    assert np.all(np.diff(at_fixed_angle) < 0), f"K(0.9) does not decay: {at_fixed_angle}"


def test_c09_legendre_identity_suites():
    """criterion 9: derivative-identity and three-term residual suites pass"""
    for x in np.linspace(-1.0, 1.0, 101):
        P = legendre_sequence(float(x), 201)
        for l in range(1, 201):
            resid = abs((2 * l + 1) * x * P[l] - (l + 1) * P[l + 1] - l * P[l - 1])
            assert resid <= 1e-13 * (1.0 + abs(P[l])), (x, l)
        for l in range(0, 201):
            resid = legendre_derivative_identity_residual(float(x), l)
            assert resid <= 1e-12 * (2 * l + 1), (x, l)


def test_c10_divergence_diagnostic():
    """criterion 10: raw partial sums oscillate without decaying"""
    p = PhysicalParams(k=1.0, beta=1.0)
    sums = unregularized_partial_sums(math.pi / 2, p, 200)
    last = sums[-50:]
    spread = math.sqrt(float(np.mean(np.abs(last - np.mean(last)) ** 2)))
    mean_magnitude = float(np.mean(np.abs(last)))
    assert spread > 0.10 * mean_magnitude


def test_c11_cli_reproducibility(capsys):
    """criterion 11: identical invocations are byte-identical; verify honors --tol"""
    argv = ["amplitude", "--k", "1", "--beta", "1",
            "--theta-min", "0.2", "--theta-max", "3.0", "--count", "32"]
    assert cli.run(argv) == 0
    first = capsys.readouterr().out
    assert cli.run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.count("\n") == 33

    verify_argv = ["verify", "--k", "1", "--beta", "1",
                   "--theta", "1.5707963", "--lmax", "4000"]
    assert cli.run(verify_argv) == 0
    out = capsys.readouterr().out
    rel = float(out.splitlines()[1].split(",")[-1])
    assert rel <= 1e-3
    assert cli.run(verify_argv + ["--tol", "1e-9"]) == 4
    capsys.readouterr()
    assert cli.run(verify_argv + ["--tol", "0.5"]) == 0
    capsys.readouterr()
