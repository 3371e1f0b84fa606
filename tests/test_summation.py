"""Tests for the regularized partial-wave summation machinery."""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from coulomb_kit import summation
from coulomb_kit.coulomb_core import (
    REGULARIZED_SERIES,
    PhysicalParams,
    closed_amplitude,
    closed_auxiliary_sum,
    closed_partial_wave_sum,
    s_matrix,
)
from coulomb_kit.errors import ConfigError, DomainError
from coulomb_kit.special_functions import _legendre_values
from coulomb_kit.summation import (
    SummationConfig,
    _blocks,
    _damped_sum,
    completeness_kernel,
    default_config,
    s_matrix_sequence,
    series_amplitude,
    series_amplitudes,
    smoothed_auxiliary_sum,
    smoothed_partial_wave_sum,
    unregularized_partial_sums,
)

P_1_1 = PhysicalParams(k=1.0, beta=1.0)

# a lighter configuration reused across tests: truncation 4000, eps 0.1 .. 0.1/32
EXAMPLE_CFG = SummationConfig(
    l_max=4000,
    epsilons=tuple(0.1 / 2**j for j in range(6)),
    extrapolation_order=4,
)


# ---------------------------------------------------------------- config

def test_default_config_matches_schedule():
    cfg = default_config()
    assert cfg.epsilons == tuple(0.1 / 2**j for j in range(6))
    assert cfg.extrapolation_order == 4
    # l_max = ceil(18.4 / eps_min): damping at truncation ~ 1e-8
    assert cfg.l_max == math.ceil(18.4 / cfg.epsilons[-1]) == 5888
    assert math.exp(-cfg.epsilons[-1] * cfg.l_max) <= 1.1e-8


def test_config_validation():
    with pytest.raises(ConfigError):
        SummationConfig(l_max=0, epsilons=(0.1,), extrapolation_order=0)
    with pytest.raises(ConfigError):
        SummationConfig(l_max=10, epsilons=(), extrapolation_order=0)
    with pytest.raises(ConfigError):
        SummationConfig(l_max=10, epsilons=(0.1, 0.2), extrapolation_order=0)
    with pytest.raises(ConfigError):
        SummationConfig(l_max=10, epsilons=(0.1, 0.1), extrapolation_order=0)
    with pytest.raises(ConfigError):
        SummationConfig(l_max=10, epsilons=(0.1, -0.05), extrapolation_order=0)
    with pytest.raises(ConfigError):
        SummationConfig(l_max=10, epsilons=(0.1, 0.05), extrapolation_order=2)
    with pytest.raises(ConfigError):
        default_config(eps_count=0)
    with pytest.raises(ConfigError):
        default_config(eps_ratio=1.0)
    # the schedule is checked before l_max = ceil(18.4 / eps_min) is formed
    for bad in ({"eps_first": math.nan}, {"eps_first": 0.0}, {"eps_first": -0.1},
                {"eps_first": math.inf}, {"eps_ratio": math.inf}, {"eps_ratio": math.nan}):
        name = next(iter(bad))
        with pytest.raises(ConfigError, match=name):
            default_config(**bad)


# ---------------------------------------------------------------- ladder

def test_ladder_free_particle_is_ones():
    S = s_matrix_sequence(16, PhysicalParams(k=1.0, beta=0.0))
    assert np.array_equal(S, np.ones(17, dtype=complex))


def test_ladder_matches_direct_definition():
    for beta in (1.0, -2.5, 5.0):
        p = PhysicalParams(k=1.0, beta=beta)
        S = s_matrix_sequence(700, p)
        for l in (0, 1, 64, 300, 511, 700):
            assert abs(S[l] - s_matrix(l, p).S) <= 1e-10, (beta, l)


def test_ladder_checkpoint_drift_tiny():
    for beta in (0.1, -0.1, 1.0, -1.0, 5.0, -5.0):
        p = PhysicalParams(k=1.0, beta=beta)
        S = s_matrix_sequence(512, p)
        for l in range(64, 513, 64):
            assert abs(S[l] - s_matrix(l, p).S) <= 1e-10


def test_ladder_recurrence_residuals():
    for beta in (0.1, -0.1, 1.0, -1.0, 5.0, -5.0):
        p = PhysicalParams(k=1.0, beta=beta)
        S = s_matrix_sequence(501, p)
        l = np.arange(501)
        up_lhs = (l + 1 - 1j * beta) * S[:-1]
        up_rhs = (l + 1 + 1j * beta) * S[1:]
        assert np.max(np.abs(up_lhs - up_rhs) / np.abs(up_lhs)) <= 1e-12
        l = np.arange(1, 502)
        down_lhs = (l + 1j * beta) * S[1:]
        down_rhs = (l - 1j * beta) * S[:-1]
        assert np.max(np.abs(down_lhs - down_rhs) / np.abs(down_lhs)) <= 1e-12


def test_ladder_drift_raises_at_first_checkpoint(monkeypatch):
    # a conjugated S_0 sends the whole ladder off the direct Gamma ratio
    real_s_matrix = summation.s_matrix

    def conjugated(l, p):
        pw = real_s_matrix(l, p)
        return replace(pw, S=pw.S.conjugate())

    monkeypatch.setattr(summation, "s_matrix", conjugated)
    with pytest.raises(ArithmeticError, match=r"at l=64 \(beta=1\.0\)"):
        s_matrix_sequence(512, P_1_1)


# ------------------------------------------------------ partial-wave sum

def test_smoothed_sum_free_particle_vanishes():
    # away from x = 1 the free kernel loses all its mass as eps -> 0
    p = PhysicalParams(k=1.0, beta=0.0)
    report = smoothed_partial_wave_sum(0.2, p, default_config(), reference=0j)
    assert abs(report.extrapolated) <= 2e-3
    assert report.abs_error == abs(report.extrapolated)


def test_smoothed_sum_example_config_meets_tolerance():
    ref = closed_partial_wave_sum(0.0, P_1_1)
    report = smoothed_partial_wave_sum(0.0, P_1_1, EXAMPLE_CFG, reference=ref)
    assert report.abs_error / abs(ref) <= 1e-3


def test_single_eps_value_is_worse_than_extrapolation():
    ref = closed_partial_wave_sum(0.0, P_1_1)
    extrapolated = smoothed_partial_wave_sum(0.0, P_1_1, EXAMPLE_CFG, reference=ref)
    single = smoothed_partial_wave_sum(
        0.0, P_1_1,
        SummationConfig(l_max=4000, epsilons=(0.1,), extrapolation_order=0),
        reference=ref,
    )
    assert single.abs_error > extrapolated.abs_error


def test_smoothed_sum_rejects_bad_abscissa():
    with pytest.raises(DomainError):
        smoothed_partial_wave_sum(1.0, P_1_1, default_config())
    with pytest.raises(DomainError):
        smoothed_partial_wave_sum(-1.01, P_1_1, default_config())


def test_report_is_deterministic():
    a = smoothed_partial_wave_sum(0.3, P_1_1, EXAMPLE_CFG)
    b = smoothed_partial_wave_sum(0.3, P_1_1, EXAMPLE_CFG)
    assert a.per_epsilon == b.per_epsilon
    assert a.extrapolated == b.extrapolated
    assert a.tail_estimate == b.tail_estimate
    # without a reference there is no error entry, and vice versa
    assert a.reference is None and a.abs_error is None
    c = smoothed_partial_wave_sum(0.3, P_1_1, EXAMPLE_CFG, reference=1 + 0j)
    assert c.reference is not None and c.abs_error is not None


def test_tail_estimate_reflects_truncation():
    short = SummationConfig(l_max=500, epsilons=(0.1, 0.05, 0.025),
                            extrapolation_order=2)
    report = smoothed_partial_wave_sum(0.3, P_1_1, short)
    # damping at l=500 for eps=0.025 is only e^-12.5
    assert report.tail_estimate > 1e-8
    deep = smoothed_partial_wave_sum(0.3, P_1_1, default_config())
    assert deep.tail_estimate < 1e-6


# --------------------------------------------------------- auxiliary sum

def test_auxiliary_sum_boundary_is_exact():
    # at x = -1 only the l = 0 term survives: every damped sum is -S_0
    for beta in (0.5, -1.0, 2.0):
        p = PhysicalParams(k=1.0, beta=beta)
        S0 = s_matrix(0, p).S
        report = smoothed_auxiliary_sum(-1.0, p, EXAMPLE_CFG)
        assert all(v == -S0 for v in report.per_epsilon)
        assert report.extrapolated == -S0


def test_auxiliary_sum_free_particle_telescopes_to_minus_one():
    p = PhysicalParams(k=1.0, beta=0.0)
    report = smoothed_auxiliary_sum(0.5, p, default_config())
    assert abs(report.extrapolated - (-1.0)) <= 1e-6


def test_auxiliary_sum_matches_closed_form():
    ref = closed_auxiliary_sum(0.0, P_1_1)
    report = smoothed_auxiliary_sum(0.0, P_1_1, EXAMPLE_CFG, reference=ref)
    assert report.abs_error / abs(ref) <= 1e-3


def test_auxiliary_partial_sum_telescopes_exactly():
    # with the damping switched off the partial sum telescopes to
    # P_L + P_{L+1} - 1 (free particle)
    for x in (-0.7, 0.1, 0.6):
        for L in (10, 137, 400):
            P = _legendre_values(x, L + 1)
            lower = np.concatenate(([0.0], P[:L]))
            terms = (P[1:] - lower).astype(complex)
            value = _damped_sum(terms, 0.0)
            expected = P[L] + P[L + 1] - 1.0
            assert abs(value - expected) <= 1e-12


def test_derivative_of_auxiliary_matches_series_per_eps():
    # term-by-term differentiation, finite-difference version: at fixed
    # eps, d/dx smoothed_auxiliary = smoothed_partial_wave to O(h^2)
    cfg = SummationConfig(l_max=2000, epsilons=(0.05,), extrapolation_order=0)
    x, eps_errors = 0.3, []
    for h in (1e-3, 5e-4):
        g_plus = smoothed_auxiliary_sum(x + h, P_1_1, cfg).per_epsilon[0]
        g_minus = smoothed_auxiliary_sum(x - h, P_1_1, cfg).per_epsilon[0]
        fd = (g_plus - g_minus) / (2 * h)
        direct = smoothed_partial_wave_sum(x, P_1_1, cfg).per_epsilon[0]
        eps_errors.append(abs(fd - direct))
    assert eps_errors[0] <= 1e-4
    ratio = eps_errors[0] / eps_errors[1]
    assert 3.5 <= ratio <= 4.5


# ------------------------------------------------------ series amplitude

def test_series_amplitude_free_particle():
    p = PhysicalParams(k=1.0, beta=0.0)
    r = series_amplitude(math.pi / 2, p, EXAMPLE_CFG)
    assert abs(r.f) <= 1e-3
    assert r.method == REGULARIZED_SERIES


def test_series_amplitude_matches_closed_form():
    r = series_amplitude(math.pi / 2, P_1_1, EXAMPLE_CFG)
    f_ref = closed_amplitude(math.pi / 2, P_1_1).f
    assert abs(r.f - f_ref) / abs(f_ref) <= 1e-3
    # with the comparison enabled the estimate is the actual deviation
    # (measured on the partial-wave sum, so equal up to rounding)
    assert r.error_estimate == pytest.approx(abs(r.f - f_ref), rel=1e-9)


def test_series_amplitude_error_estimate_without_reference():
    r = series_amplitude(math.pi / 2, P_1_1, EXAMPLE_CFG, compare_closed=False)
    assert r.error_estimate > 0.0
    f_ref = closed_amplitude(math.pi / 2, P_1_1).f
    # the noise estimate is the right order of magnitude here
    assert r.error_estimate <= 100 * abs(r.f - f_ref) + 1e-9


def test_series_amplitude_per_eps_errors_decrease_at_small_angle():
    # smaller angles converge more slowly but still monotonically in eps
    x = math.cos(math.pi / 6)
    ref = closed_partial_wave_sum(x, P_1_1)
    report = smoothed_partial_wave_sum(x, P_1_1, EXAMPLE_CFG, reference=ref)
    errors = [abs(v - ref) for v in report.per_epsilon]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert report.abs_error < errors[-1]


def test_series_amplitude_flags_near_forward_angles():
    r = series_amplitude(math.pi / 40, P_1_1, EXAMPLE_CFG)
    assert r.theta == math.pi / 40  # admitted, just slow


def test_series_amplitudes_equal_per_angle_values_bitwise():
    thetas = np.linspace(math.pi / 6, math.pi, 64)
    for beta in (1.0, -1.0, 0.3, -4.9):
        p = PhysicalParams(k=0.8, beta=beta)
        grid = series_amplitudes(thetas, p)
        assert grid == [series_amplitude(float(t), p) for t in thetas], beta


def test_series_amplitudes_empty_grid():
    assert series_amplitudes([], P_1_1) == []


def test_damped_and_auxiliary_sums_bitwise():
    # the weights are written out here, not taken from the module, so a
    # change to the module's damping factors cannot hide in both sides
    L, p = 800, PhysicalParams(k=1.0, beta=1.3)
    cfg = SummationConfig(l_max=L, epsilons=(0.01, 0.003, 0.001),
                          extrapolation_order=1)
    l = np.arange(L + 1, dtype=float)
    S = s_matrix_sequence(L, p)
    for x in (-1.0, -0.3, 0.5, 0.95):
        P = _legendre_values(x, L + 1)
        lower = np.concatenate(([0.0], P[:L]))
        for report, terms in (
            (smoothed_partial_wave_sum(x, p, cfg), (2 * l + 1) * S * P[: L + 1]),
            (smoothed_auxiliary_sum(x, p, cfg), S * (P[1:] - lower)),
        ):
            for eps, value in zip(cfg.epsilons, report.per_epsilon):
                assert value == complex(np.sum(terms * np.exp(-eps * l))), (x, eps)


def test_series_amplitude_rejects_forward():
    with pytest.raises(DomainError):
        series_amplitude(0.0, P_1_1, EXAMPLE_CFG)


def test_tightening_schedule_does_not_hurt():
    # deepen the schedule by one halving while keeping truncation
    # negligible (l_max chosen so damping at l_max is ~1e-20): the
    # oracle error must not grow beyond extrapolation noise
    eps6 = tuple(0.1 / 2**j for j in range(6))
    eps7 = tuple(0.1 / 2**j for j in range(7))
    cfg6 = SummationConfig(l_max=math.ceil(45 / eps6[-1]), epsilons=eps6,
                           extrapolation_order=4)
    cfg7 = SummationConfig(l_max=math.ceil(45 / eps7[-1]), epsilons=eps7,
                           extrapolation_order=4)
    for k, beta in ((1.0, 1.0), (2.0, 0.5)):
        p = PhysicalParams(k=k, beta=beta)
        for theta in (math.pi / 6, math.pi / 2, 2 * math.pi / 3, math.pi):
            ref = closed_partial_wave_sum(math.cos(theta), p)
            e6 = abs(smoothed_partial_wave_sum(math.cos(theta), p, cfg6).extrapolated - ref)
            e7 = abs(smoothed_partial_wave_sum(math.cos(theta), p, cfg7).extrapolated - ref)
            assert e7 <= e6 + 1e-10, (k, beta, theta)


# --------------------------------------------------- completeness kernel

def test_kernel_integral_is_two():
    # Legendre orthogonality: only l = 0 contributes to the integral
    nodes, weights = np.polynomial.legendre.leggauss(256)
    values = completeness_kernel(nodes, 0.05, 500)
    integral = float(np.sum(weights * values))
    assert abs(integral - 2.0) <= 1e-6


def test_kernel_value_at_minus_one_small_and_bounded():
    # alternating sum; closed form of the full series is (1-t)/(1+t)^2
    value = completeness_kernel([-1.0], 0.1, 4000)[0]
    t = math.exp(-0.1)
    assert abs(value - (1 - t) / (1 + t) ** 2) <= 1e-10
    assert abs(value) < 0.1


def test_kernel_peak_grows_as_eps_shrinks():
    # at x = 1 every term grows when eps decreases
    v1 = completeness_kernel([1.0], 0.1, 2000)[0]
    v2 = completeness_kernel([1.0], 0.05, 2000)[0]
    assert v2 > v1


def test_kernel_matches_free_smoothed_sum_bitwise():
    # same code path: S_l = 1 turns the partial-wave sum into the kernel
    p = PhysicalParams(k=1.0, beta=0.0)
    cfg = SummationConfig(l_max=300, epsilons=(0.1, 0.05), extrapolation_order=0)
    for x in (-0.8, 0.0, 0.37, 1.0 - 1e-9):
        report = smoothed_partial_wave_sum(x, p, cfg)
        for eps, value in zip(cfg.epsilons, report.per_epsilon):
            kernel = completeness_kernel([x], eps, 300)[0]
            assert kernel == value.real
            assert value.imag == 0.0


def test_kernel_equals_per_abscissa_damped_sum_at_block_edges():
    L, eps = 500, 0.0125
    edge = _blocks(10**6, L)[0].stop
    l = np.arange(L + 1)
    rng = np.random.default_rng(7)
    for nx in sorted({0, 1, 63, 64, 65, 321, edge - 1, edge, edge + 1}):
        xs = np.concatenate(([-1.0, 1.0, 0.0], rng.uniform(-1.0, 1.0, nx)))[:nx]
        values = completeness_kernel(xs, eps, L)
        assert values.shape == (nx,)
        for x, value in zip(xs, values):
            terms = (2 * l + 1) * np.ones(L + 1, dtype=complex) * _legendre_values(x, L)
            assert value == _damped_sum(terms, eps).real, (nx, x)


def test_kernel_domain_errors():
    with pytest.raises(DomainError):
        completeness_kernel([0.0, 1.2], 0.1, 10)
    # NaN fails every comparison, so it must be rejected as out of range too
    for xs in ([math.nan, 0.5], [0.5, math.nan], [math.nan]):
        with pytest.raises(DomainError):
            completeness_kernel(xs, 0.1, 10)
    with pytest.raises(ConfigError):
        completeness_kernel([0.0], -0.1, 10)
    with pytest.raises(DomainError):
        completeness_kernel([0.0], 0.1, -1)


# ------------------------------------------------------ raw partial sums

def test_partial_sums_single_term():
    for beta in (0.7, -2.0):
        p = PhysicalParams(k=1.0, beta=beta)
        sums = unregularized_partial_sums(math.pi / 3, p, 0)
        assert len(sums) == 1
        assert abs(sums[0] - s_matrix(0, p).S / (2j * p.k)) <= 1e-15


def test_partial_sums_free_particle_bounded_oscillation():
    p = PhysicalParams(k=1.0, beta=0.0)
    sums = unregularized_partial_sums(math.pi / 2, p, 200)
    assert np.max(np.abs(sums)) < 10.0
    # no convergence: the last steps still move the sum by O(1)
    assert abs(sums[-1] - sums[-3]) > 0.1


def test_partial_sums_nondecaying_oscillation():
    sums = unregularized_partial_sums(math.pi / 2, P_1_1, 200)
    last = sums[-50:]
    spread = math.sqrt(float(np.mean(np.abs(last - np.mean(last)) ** 2)))
    assert spread > 0.1 * float(np.mean(np.abs(last)))


def test_partial_sums_rejects_bad_arguments():
    with pytest.raises(DomainError):
        unregularized_partial_sums(0.0, P_1_1, 10)
    with pytest.raises(DomainError):
        unregularized_partial_sums(math.pi / 2, P_1_1, -1)


# ---------------------------------------------------------- concurrency

def test_concurrent_evaluations_match_serial():
    thetas = [0.4, 0.9, 1.7, 2.8]
    serial = [series_amplitude(t, P_1_1, EXAMPLE_CFG).f for t in thetas]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(
            lambda t: series_amplitude(t, P_1_1, EXAMPLE_CFG).f, thetas))
    assert serial == parallel
