"""Tests for the regularized partial-wave summation machinery."""

import math
import sys
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coulomb_kit import special_functions, summation
from coulomb_kit.coulomb_core import (
    REGULARIZED_SERIES,
    PartialWave,
    PhysicalParams,
    closed_amplitude,
    closed_auxiliary_sum,
    closed_partial_wave_sum,
    s_matrix,
)
from coulomb_kit.errors import MAX_L, ConfigError, DomainError
from coulomb_kit.special_functions import _TABLE_VECTOR_MIN, _legendre_values
from coulomb_kit.summation import (
    SummationConfig,
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


def _damped_sum(terms: np.ndarray, epsilon: float) -> complex:
    """One abscissa's damped sum: the reference the kernel's sums must equal.

    The Abel weights exp(-eps l) are written out here, not taken from the
    module, so a change to the module's damping cannot hide in both sides.
    """
    l = np.arange(len(terms), dtype=float)
    return complex(np.sum(terms * np.exp(-epsilon * l)))


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
    with pytest.raises(ConfigError, match="l_max"):
        SummationConfig(l_max=MAX_L + 1, epsilons=(0.1,), extrapolation_order=0)
    with pytest.raises(ConfigError, match="l_max"):
        default_config(l_max=MAX_L + 1)
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
    # orders are integers: a fraction, NaN or inf is not truncated
    for bad in (2.5, math.nan, math.inf):
        with pytest.raises(ConfigError, match="l_max"):
            SummationConfig(l_max=bad, epsilons=(0.1,), extrapolation_order=0)
        with pytest.raises(ConfigError, match="extrapolation_order"):
            SummationConfig(l_max=10, epsilons=(0.1, 0.05), extrapolation_order=bad)
    for good in (100, np.int64(100), 100.0, np.float64(100.0)):
        cfg = SummationConfig(l_max=good, epsilons=(0.1, 0.05), extrapolation_order=good / 100)
        assert (cfg.l_max, cfg.extrapolation_order) == (100, 1)
        assert type(cfg.l_max) is int and type(cfg.extrapolation_order) is int


# ---------------------------------------------------------------- ladder

def test_ladder_free_particle_is_ones():
    S = s_matrix_sequence(16, PhysicalParams(k=1.0, beta=0.0))
    assert np.array_equal(S, np.ones(17, dtype=complex))


def test_ladder_rejects_bad_lengths():
    for bad in (-1, MAX_L + 1, 2.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="l_max"):
            s_matrix_sequence(bad, P_1_1)


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
        return PartialWave(pw.l, pw.S.conjugate(), pw.delta)

    monkeypatch.setattr(summation, "s_matrix", conjugated)
    with pytest.raises(ArithmeticError, match=r"at l=64 \(beta=1\.0\)"):
        s_matrix_sequence(512, P_1_1)


def test_ladder_check_runs_on_the_cached_lattice(monkeypatch):
    # one cached ladder index off by 1e-6 relative, 10 -> 10 (1 + 1e-6), turns
    # the phase of factor 10 by about 2e-5 beta / (100 + beta^2), and the
    # running product carries it to every later S_l: about 2e-7 at beta = 1
    # and 2e-9 at beta = 1e4, both past the 1e-10 tolerance, so the first
    # checkpoint after it raises
    summation._lattices(512)
    kept, rows, j = summation._lattice_memo
    assert kept >= 512 and j[9] == 10.0
    perturbed = j.copy()
    perturbed[9] *= 1.0 + 1e-6
    for beta in (1.0, 1e4):
        p = PhysicalParams(k=1.0, beta=beta)
        s_matrix_sequence(512, p)
        with monkeypatch.context() as patch:
            patch.setattr(summation, "_lattice_memo", (kept, rows, perturbed))
            with pytest.raises(ArithmeticError, match=r"at l=64 \(beta="):
                s_matrix_sequence(512, p)


# ------------------------------------------------------ partial-wave sum

def test_smoothed_sum_free_particle_vanishes():
    # away from x = 1 the free kernel loses all its mass as eps -> 0
    p = PhysicalParams(k=1.0, beta=0.0)
    report = smoothed_partial_wave_sum(0.2, p, default_config())
    assert abs(report.extrapolated) <= 2e-3


def test_smoothed_sum_example_config_meets_tolerance():
    ref = closed_partial_wave_sum(0.0, P_1_1)
    report = smoothed_partial_wave_sum(0.0, P_1_1, EXAMPLE_CFG)
    assert abs(report.extrapolated - ref) / abs(ref) <= 1e-3


def test_single_eps_value_is_worse_than_extrapolation():
    ref = closed_partial_wave_sum(0.0, P_1_1)
    extrapolated = smoothed_partial_wave_sum(0.0, P_1_1, EXAMPLE_CFG)
    single = smoothed_partial_wave_sum(
        0.0, P_1_1,
        SummationConfig(l_max=4000, epsilons=(0.1,), extrapolation_order=0),
    )
    assert abs(single.extrapolated - ref) > abs(extrapolated.extrapolated - ref)


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
    report = smoothed_auxiliary_sum(0.0, P_1_1, EXAMPLE_CFG)
    assert abs(report.extrapolated - ref) / abs(ref) <= 1e-3


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


def test_series_amplitude_error_estimate_without_reference():
    r = series_amplitude(math.pi / 2, P_1_1, EXAMPLE_CFG)
    assert r.error_estimate > 0.0
    f_ref = closed_amplitude(math.pi / 2, P_1_1).f
    # the noise estimate is the right order of magnitude here
    assert r.error_estimate <= 100 * abs(r.f - f_ref) + 1e-9


def test_series_error_estimate_is_the_extrapolation_noise():
    # the series never consults the closed form: its estimate is its own noise
    cfg = SummationConfig(l_max=1500, epsilons=(0.2, 0.1, 0.05, 0.025),
                          extrapolation_order=3)
    for beta in (0.0, 0.3, -1.7, 4.0):
        p = PhysicalParams(k=0.6, beta=beta)
        for theta in (0.4, math.pi / 3, 2.0, math.pi):
            report = smoothed_partial_wave_sum(math.cos(theta), p, cfg)
            r = series_amplitude(theta, p, cfg)
            assert r.error_estimate == report.extrapolation_noise / (2 * p.k), (beta, theta)


def test_series_amplitude_per_eps_errors_decrease_at_small_angle():
    # smaller angles converge more slowly but still monotonically in eps
    x = math.cos(math.pi / 6)
    ref = closed_partial_wave_sum(x, P_1_1)
    report = smoothed_partial_wave_sum(x, P_1_1, EXAMPLE_CFG)
    errors = [abs(v - ref) for v in report.per_epsilon]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert abs(report.extrapolated - ref) < errors[-1]


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


# ----------------------------------------- reduced series (default engine)

def mp_closed_amplitude(theta, k, beta):
    """f(theta) from mpmath at 30 digits, written out apart from coulomb_core."""
    with mp.workdps(30):
        b, s2 = mp.mpf(beta), mp.sin(mp.mpf(theta) / 2) ** 2
        ratio = mp.exp(mp.loggamma(1 - 1j * b) - mp.loggamma(1j * b))
        return complex(ratio / 1j * mp.exp(1j * b * mp.log(s2)) / (2 * k * s2))


def test_reduced_coefficients_match_three_subtractions():
    # the reference takes the three reductions, and a fourth, as
    # subtractions, at 50 digits so that their cancellation leaves full
    # double precision; at beta = 1000 the S_l ladder's own error (about
    # 2e-13) dominates
    L = 1024
    for beta, tol in ((0.01, 5e-14), (1.0, 5e-14), (10.0, 5e-14), (1000.0, 5e-13)):
        refs = {}
        with mp.workdps(50):
            b = mp.mpf(beta)
            S = [mp.gamma(1 - 1j * b) / mp.gamma(1 + 1j * b)]
            for l in range(1, L + 5):
                S.append(S[-1] * (l - 1j * b) / (l + 1j * b))
            c = [(2 * l + 1) * s for l, s in enumerate(S)]
            for m in range(1, 5):
                c = [c[l] - (l * c[l - 1] / (2 * l - 1) if l else 0)
                     - (l + 1) * c[l + 1] / (2 * l + 3) for l in range(len(c) - 1)]
                refs[m] = np.array([complex(v) for v in c[: L + 1]])
        for m in (3, 4):
            a = summation._reduced_coefficients(L, beta, m)
            assert a.shape == (L + 1,)
            assert np.max(np.abs(a - refs[m]) / np.abs(refs[m])) <= tol, (beta, m)


def test_series_amplitudes_bitwise_across_truncations():
    # angles near pi/36 stop at a longer L than the rest, so the other
    # angles' rungs slice the memo's longest build; this pins prefix
    # stability: those slices must equal the builds of calls made cold
    p = PhysicalParams(k=1.3, beta=-8.0)
    for count in (2, 13, 40):
        thetas = np.linspace(math.pi / 36, math.pi, count)
        grid = series_amplitudes(thetas, p)
        assert grid == [_cold_series_amplitude(float(t), p) for t in thetas], count


def _clear_reduced_memo():
    summation._reduced_memo = (None, {})


def _cold_series_amplitude(theta, p):
    """series_amplitude with the reduced-coefficient memo emptied first."""
    _clear_reduced_memo()
    return series_amplitude(theta, p)


def test_s_matrix_and_reduced_coefficients_are_prefix_stable():
    # the memo hands every rung a slice of its longest build, so a build at
    # L must be the first L + 1 entries of the longest one, bit for bit,
    # for either order
    rungs = [256 * 2**j for j in range(11)]
    assert rungs[-1] == MAX_L
    for beta in (0.37, 1.0, -8.0, 1000.0):
        p = PhysicalParams(k=1.0, beta=beta)
        _clear_reduced_memo()
        # rising L, the orders interleaved: every call past 1024 builds afresh
        a = {(m, L): summation._reduced_coefficients(L, beta, m) for L in rungs for m in (3, 4)}
        S = s_matrix_sequence(MAX_L, p)
        for L in rungs[:-1]:
            assert s_matrix_sequence(L, p).tobytes() == S[: L + 1].tobytes(), (beta, L)
            for m in (3, 4):
                assert a[m, L].tobytes() == a[m, MAX_L][: L + 1].tobytes(), (beta, m, L)


def test_reduced_coefficient_memo_is_invisible():
    # the longest angle first: at beta = -8, pi/36 needs L = 16384 and 0.3
    # stops at 8192, so its warm rungs slice the longer build, which pins
    # prefix stability; k changes between cold and warm calls, as the memo
    # is keyed on beta alone
    cases = {1.0: (0.3, 2.0, math.pi), -8.0: (math.pi / 36, 0.3, 3.0), 1000.0: (1.0, 3.0)}
    for beta, thetas in cases.items():
        p, other_k = PhysicalParams(k=0.7, beta=beta), PhysicalParams(k=1.9, beta=beta)
        cold = [_cold_series_amplitude(t, p) for t in thetas]
        for t in thetas:
            series_amplitude(t, other_k)
        assert [series_amplitude(t, p) for t in thetas] == cold, beta
        assert series_amplitudes(thetas, p) == cold, beta
        between = []
        for t in thetas:
            for other in (0.5, -3.0, 40.0):
                series_amplitude(2.0, PhysicalParams(k=1.0, beta=other))
            between.append(series_amplitude(t, p))
        assert between == cold, beta
    a = summation._reduced_coefficients(256, 1.0, 4)
    with pytest.raises(ValueError):
        a[0] = 0.0
    b = summation._reduced_coefficients(256, 1.0, 4)
    assert np.shares_memory(b, a) and b.tobytes() == a.tobytes()


def _reduced_coefficients_before_the_lattices(n, beta, m):
    """The build to length n as written before the beta-free lattices were kept."""
    j = np.arange(1, n + 1)
    # named: numpy would multiply S_0 into a temporary in place, with other last bits
    ladder = np.concatenate(([1.0 + 0.0j], np.cumprod((j - 1j * beta) / (j + 1j * beta))))
    a = s_matrix(0, PhysicalParams(k=1.0, beta=beta)).S * ladder
    l = np.arange(n + 1, dtype=float)
    a *= 2 * beta * (2 * l + 1)
    for i in range(m):
        a /= (l - i) * (l + 1 + i) + beta**2 - 1j * (2 * i + 1) * beta
    a *= math.prod([2 ** (m - 1) * beta] + [(beta - 1j * i) ** 2 for i in range(1, m)])
    return a


def test_reduced_coefficients_keep_the_bits_of_the_uncached_build():
    # the same operations on the same values in the same order: bit for bit
    # at every length, with the lattice memo cold, warm at that length and
    # warm at the longest length it keeps, below and above that length
    for n in (512, 1024, 4096, MAX_L):
        for beta in (0.37, 1.0, -8.0, 1000.0, 1e-300):
            for m in (3, 4):
                expected = _reduced_coefficients_before_the_lattices(n, beta, m).tobytes()
                summation._lattice_memo = (-1, None, None)
                for warm_to in (None, n, 2**14):
                    if warm_to:
                        summation._lattices(warm_to)
                    _clear_reduced_memo()
                    a = summation._reduced_coefficients(n, beta, m)
                    assert a.tobytes() == expected, (n, beta, m, warm_to)
    rows, j = summation._lattices(512)
    for array in (rows, j, *summation._lattice_memo[1:]):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[..., 0] = 0.0


def test_lattice_memo_is_bounded_and_built_once_per_beta_scan(monkeypatch):
    # the memo keeps the longest lattice up to 2^14 rows, under 1 MiB: a
    # MAX_L-sized one is built for the call and never kept
    summation._lattice_memo = (-1, None, None)
    s_matrix_sequence(MAX_L, P_1_1)
    assert summation._lattice_memo == (-1, None, None)
    summation._lattices(2**14)
    _clear_reduced_memo()
    summation._reduced_coefficients(MAX_L, 2.5, 4)
    kept, rows, j = summation._lattice_memo
    assert kept == 2**14 and rows.nbytes + j.nbytes < 2**20
    # a count, not a timing: the beta-scan shape, 48 fresh betas over
    # theta in [pi/6, 0.98 pi], makes 48 order-4 builds to 512 and the
    # lattice for 512 once
    rungs, builds = _recorded_rungs(monkeypatch)
    summation._lattice_memo = (-1, None, None)
    thetas = np.linspace(math.pi / 6, 0.98 * math.pi, 48)
    betas = np.geomspace(0.05, 5.0, 48) * np.resize([1.0, -1.0], 48)
    memos = []
    for theta, beta in zip(thetas, np.random.default_rng(1).permutation(betas)):
        series_amplitude(float(theta), PhysicalParams(k=1.0, beta=float(beta)))
        memos.append(summation._lattice_memo)
    assert builds == [(4, 512)] * 48
    assert memos[0][0] == 512 and all(memo is memos[0] for memo in memos)


def _recorded_rungs(monkeypatch):
    """(order, L) of every rung summed, and (order, length) of every coefficient build."""
    rungs, builds = [], []
    reduced_coefficients = summation._reduced_coefficients

    def recorded(L, beta, m):
        rungs.append((m, L))
        return reduced_coefficients(L, beta, m)

    def counted(l_max, p):
        builds.append((rungs[-1][0], l_max))
        return s_matrix_sequence(l_max, p)

    monkeypatch.setattr(summation, "_reduced_coefficients", recorded)
    monkeypatch.setattr(summation, "s_matrix_sequence", counted)
    return rungs, builds


def test_series_calls_at_one_beta_build_once(monkeypatch):
    # a count, not a timing: 64 single-angle calls at beta = 1 (the
    # series-grid input) all sum at order 4, whose rounding floor stays
    # below the tolerance there, and stop at L = 256 or 512, both served
    # by the one build an order makes first, to L = 512
    rungs, builds = _recorded_rungs(monkeypatch)
    _clear_reduced_memo()
    p = PhysicalParams(k=1.0, beta=1.0)
    for theta in np.linspace(math.pi / 6, math.pi, 64):
        rungs.clear()
        series_amplitude(float(theta), p)
        assert {m for m, _ in rungs} == {4} and rungs[-1][1] <= 512, (theta, rungs)
    assert builds == [(4, 512)]
    # a scan over many betas keeps the last beta's build only
    for beta in np.linspace(-20.0, 20.0, 40):
        series_amplitude(1.0, PhysicalParams(k=1.0, beta=float(beta)))
    memo_beta, built = summation._reduced_memo
    _clear_reduced_memo()
    assert memo_beta == 20.0 and list(built) == [4]
    a = built[4]
    assert a.tobytes() == summation._reduced_coefficients(len(a) - 1, 20.0, 4).tobytes()


def test_grid_across_the_switch_builds_each_order_once(monkeypatch):
    # a count, not a timing: over [pi/36, pi] at beta = 1 the angles below
    # about 0.3 drop to order 3, pi/36 first, whose rungs climb to
    # L = 4096; order 4 is built once and order 3 once per rung of that
    # climb.  Angles alternating between the orders then build nothing
    rungs, builds = _recorded_rungs(monkeypatch)
    _clear_reduced_memo()
    p = PhysicalParams(k=1.0, beta=1.0)
    thetas = [float(t) for t in np.linspace(math.pi / 36, math.pi, 64)]
    cold = series_amplitudes(thetas, p)
    assert builds == [(4, 512), (3, 512), (3, 1024), (3, 2048), (3, 4096)]
    builds.clear()
    alternating = [t for pair in zip(thetas[:32], thetas[32:]) for t in pair]
    rungs.clear()
    assert series_amplitudes(alternating, p) == [cold[thetas.index(t)] for t in alternating]
    assert builds == [] and {m for m, _ in rungs} == {3, 4}


def test_series_grid_resumes_each_angle_sweep(monkeypatch):
    # a count, not a timing: over the series-grid input every rung resumes
    # after the rows the last one made, so an angle that stops at L
    # computes P_0 .. P_L once each (P_0 = 1 seeds the first rung).  The
    # grid is a numpy array, yet every sweep gets a Python float: a numpy
    # scalar gives the same bits at half the loop's speed
    sweeps = {}

    def counted(x, L, head=(1.0,)):
        assert type(x) is float, type(x)
        sweeps.setdefault(x, []).append((len(head), L))
        return special_functions._legendre_values(x, L, head)

    monkeypatch.setattr(summation, "_legendre_values", counted)
    series_amplitudes(np.linspace(math.pi / 6, math.pi, 64), PhysicalParams(k=1.0, beta=1.0))
    assert len(sweeps) == 64
    for x, rungs in sweeps.items():
        final_L = rungs[-1][1]
        assert 1 + sum(L + 1 - rows for rows, L in rungs) == final_L + 1, (x, rungs)
    assert {rungs[-1][1] for rungs in sweeps.values()} <= {256, 512, 1024}


def test_default_series_meets_tolerance_at_backward_angle():
    # the Abel default missed 1e-3 here (3.9e-3 at beta = 0.05)
    for beta in (0.05, -0.05, 0.1, -0.1):
        r = series_amplitude(math.pi, PhysicalParams(k=1.0, beta=beta))
        f_ref = closed_amplitude(math.pi, PhysicalParams(k=1.0, beta=beta)).f
        assert abs(r.f - f_ref) <= 1e-9 * abs(f_ref), beta
        assert r.error_estimate >= abs(r.f - f_ref), beta


def test_default_series_at_tiny_beta_is_within_its_estimate():
    # beta^2 is subnormal below |beta| ~ 1.5e-154 and 0 below 1e-162, while
    # a_0 .. a_2 and f are O(beta): a coefficient formed through beta^2 lost
    # its digits here, or all of them, and returned f = 0 with estimate 0
    # 1/beta is still finite just above 1/DBL_MAX = 5.5627e-309
    for beta in (1e-300, -1e-300, 1e-200, 1e-162, 1e-158, 6e-309, 5.6e-309, -5.6e-309):
        for theta in (0.5, 1.0, 2.0, math.pi):
            p = PhysicalParams(k=1.0, beta=beta)
            r = series_amplitude(theta, p)
            f_closed = closed_amplitude(theta, p).f
            assert r.f != 0.0, (beta, theta)
            assert abs(r.f - f_closed) <= r.error_estimate + 1e-15 * abs(r.f), (beta, theta)


def test_default_series_below_one_over_dbl_max_raises_before_any_sweep(monkeypatch):
    # there 1/beta overflows, and the coefficients' complex divide with it,
    # so every a_l would be NaN: the error must name that cause before any
    # rung is swept, and no numpy warning may escape
    sweeps = []

    def counted(x, L, head=(1.0,)):
        sweeps.append(L)
        return special_functions._legendre_values(x, L, head)

    monkeypatch.setattr(summation, "_legendre_values", counted)
    for beta in (5.5626e-309, -5.5626e-309, 1e-310, 5e-324):
        for theta in (0.5, math.pi):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ArithmeticError, match=rf"1/beta overflows at beta={beta!r}"):
                    series_amplitude(theta, PhysicalParams(k=1.0, beta=beta))
    assert sweeps == []


def test_default_series_free_particle_is_exactly_zero():
    for theta in (0.3, math.pi / 2, math.pi):
        r = series_amplitude(theta, PhysicalParams(k=1.0, beta=0.0))
        assert r.f == 0.0 and r.error_estimate == 0.0
        assert r.method == REGULARIZED_SERIES


def test_default_series_beyond_the_cap_raises():
    # |beta| = 1e4 at theta = 1 would need L > MAX_L: an error, never a value
    with pytest.raises(ArithmeticError, match=r"L=262144 \(beta=10000\.0, theta=1\.0\)"):
        series_amplitude(1.0, PhysicalParams(k=1.0, beta=1e4))


def test_default_series_gives_up_once_the_floor_passes_the_ceiling(monkeypatch):
    # the rounding floor only grows with L: past 1e-6 |g| on two rungs
    # running the angle cannot be saved, so it raises long before the cap
    rungs = []

    def recorded(L, beta, m):
        rungs.append(L)
        return reduced_coefficients(L, beta, m)

    reduced_coefficients = summation._reduced_coefficients
    monkeypatch.setattr(summation, "_reduced_coefficients", recorded)
    with pytest.raises(ArithmeticError, match=r"relative exceeds 1e-06 "
                       r"\(beta=100\.0, theta=0\.001\)"):
        series_amplitude(1e-3, PhysicalParams(k=1.0, beta=100.0))
    assert max(rungs) == 16384 < MAX_L


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    log_beta=st.floats(math.log(0.01), math.log(100.0)),
    sign=st.sampled_from((1.0, -1.0)),
    theta=st.floats(math.pi / 36, math.pi),
    k=st.floats(0.5, 2.0),
)
@example(log_beta=math.log(3.23), sign=-1.0, theta=2.34, k=1.0)
@example(log_beta=math.log(100.0), sign=1.0, theta=math.pi / 36, k=1.0)
def test_default_series_estimate_bounds_the_error(log_beta, sign, theta, k):
    # at (-3.23, 2.34) the plain halving difference |g_L - g_{L/2}| fell 2x
    # below the true error; the estimate must never do so
    beta = sign * math.exp(log_beta)
    r = series_amplitude(theta, PhysicalParams(k=k, beta=beta))
    f_ref = mp_closed_amplitude(theta, k, beta)
    error = abs(r.f - f_ref)
    assert r.error_estimate >= error
    assert error <= 1e-9 * abs(f_ref)


def test_default_series_near_forward_raises():
    # the rounding floor, which grows like theta^-4, exceeds |f| itself here
    for theta in (1e-4, 1e-7):
        for beta in (0.01, 1.0, -10.0):
            with pytest.raises(ArithmeticError, match=rf"relative exceeds 1e-06 "
                               rf"\(beta={beta!r}, theta={theta!r}\)"):
                series_amplitude(theta, PhysicalParams(k=1.0, beta=beta))


def test_default_series_reach_near_forward():
    # the README's reach: a scan in steps of 1e-4 found the first angle
    # that returns at 0.0110, 0.0113, 0.0164 and 0.0245 for |beta| = 0.1,
    # 1, 10 and 100, either sign; each stated angle returns a bounded error
    for beta, theta in ((0.1, 0.011), (1.0, 0.012), (10.0, 0.017), (100.0, 0.025)):
        for sign in (1.0, -1.0):
            r = series_amplitude(theta, PhysicalParams(k=1.0, beta=sign * beta))
            error = abs(r.f - mp_closed_amplitude(theta, 1.0, sign * beta))
            assert error <= r.error_estimate <= 1e-6 * abs(r.f), (sign * beta, theta)
    with pytest.raises(ArithmeticError, match=r"estimate 0\.0113 relative exceeds 1e-06 "
                       r"\(beta=1\.0, theta=0\.011\)"):
        series_amplitude(0.011, PhysicalParams(k=1.0, beta=1.0))


def test_default_series_bounds_the_error_on_both_sides_of_the_order_switch(monkeypatch):
    # a scan in steps of 1e-3 found the smallest angle summed at order 4:
    # 0.297, 0.299, 0.326 and 0.400 for |beta| = 0.01, 1, 10 and 100, either
    # sign; 1e-3 below it the floor drops the angle to order 3
    rungs, _ = _recorded_rungs(monkeypatch)
    for beta, below, above in ((0.01, 0.296, 0.297), (1.0, 0.298, 0.299),
                               (10.0, 0.325, 0.326), (100.0, 0.399, 0.4)):
        for sign in (1.0, -1.0):
            for t, order in ((below, 3), (above, 4)):
                rungs.clear()
                r = series_amplitude(t, PhysicalParams(k=1.0, beta=sign * beta))
                assert rungs[-1][0] == order, (sign * beta, t, rungs)
                error = abs(r.f - mp_closed_amplitude(t, 1.0, sign * beta))
                assert error <= r.error_estimate <= 1e-6 * abs(r.f), (sign * beta, t)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    log_beta=st.floats(math.log(0.01), math.log(100.0)),
    sign=st.sampled_from((1.0, -1.0)),
    log_theta=st.floats(math.log(1e-4), math.log(math.pi / 36)),
)
@example(log_beta=math.log(100.0), sign=1.0, log_theta=math.log(0.03))
@example(log_beta=0.0, sign=1.0, log_theta=math.log(0.01))
def test_default_series_small_angles_raise_or_bound_the_error(log_beta, sign, log_theta):
    # below pi/36 the rounding floor grows like theta^-4: each angle either
    # raises or returns an estimate that bounds the error within 1e-6 |f|
    beta, theta = sign * math.exp(log_beta), math.exp(log_theta)
    try:
        r = series_amplitude(theta, PhysicalParams(k=1.0, beta=beta))
    except ArithmeticError:
        return
    error = abs(r.f - mp_closed_amplitude(theta, 1.0, beta))
    assert error <= r.error_estimate <= 1e-6 * abs(r.f)


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

def test_abel_weights_past_a_double_are_zero_without_a_warning():
    # -eps l overflows to -inf from l = 1 or 2 on, and exp(-inf) = 0 is the
    # right weight: no RuntimeWarning, raised here as an error
    S0 = s_matrix(0, P_1_1).S
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert completeness_kernel([0.5], 1.7e308, 3).tolist() == [1.0]
        report = smoothed_partial_wave_sum(0.5, P_1_1, SummationConfig(50, (1e308, 1e307), 1))
    assert report.per_epsilon == (S0, S0) and report.extrapolated == S0


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


def _edge_counts(L):
    """Grid sizes at every seam of _damped_sums at this L.

    The edges of a Legendre block (one sweep each), of a row chunk (the
    C-ordered complex terms are formed _BLOCK_ENTRIES / 16 entries at a
    time) and of a short last block, which below _TABLE_VECTOR_MIN
    abscissae is swept per abscissa.
    """
    edge = max(summation._BLOCK_MIN, summation._BLOCK_ENTRIES // (L + 1))
    chunk = max(1, summation._BLOCK_ENTRIES // (16 * (L + 1)))
    seams = (1, chunk, 2 * chunk, edge, edge + chunk, edge + _TABLE_VECTOR_MIN)
    return sorted({0} | {n + d for n in seams for d in (-1, 0, 1)})


def _edge_pool(n, seed, top=1.0):
    """n abscissae, the end points and 0 first; every grid is a prefix."""
    rng = np.random.default_rng(seed)
    return np.concatenate(([-1.0, top, 0.0], rng.uniform(-1.0, top, n)))[:n]


def test_kernel_equals_per_abscissa_damped_sum_at_block_edges():
    # a grid of every size near a seam, against one np.sum per abscissa:
    # an abscissa's bits must not depend on its place in the grid
    for L, eps in ((500, 0.0125), (4095, 0.003)):
        counts = _edge_counts(L) + [321]
        xs = _edge_pool(max(counts), 7)
        l = np.arange(L + 1)
        want = [_damped_sum((2 * l + 1) * np.ones(L + 1, dtype=complex)
                            * _legendre_values(x, L), eps).real for x in xs]
        for nx in counts:
            _clear_table_memo()
            values = completeness_kernel(xs[:nx], eps, L)
            assert values.shape == (nx,)
            assert values.tolist() == want[:nx], (L, nx)


def test_abel_grid_equals_per_abscissa_damped_sums_at_block_edges():
    # six eps per abscissa, each row of a chunk damped in turn: every sum
    # must be that abscissa's own np.sum
    L = 500
    cfg = SummationConfig(l_max=L, epsilons=tuple(0.2 / 2**j for j in range(6)))
    p = PhysicalParams(k=1.0, beta=1.3)
    coefficients = (2 * np.arange(L + 1) + 1) * s_matrix_sequence(L, p)
    counts = _edge_counts(L)
    xs = _edge_pool(max(counts), 11, top=1.0 - 1e-9)
    want = [tuple(_damped_sum(coefficients * _legendre_values(x, L), eps)
                  for eps in cfg.epsilons) for x in xs]
    for nx in counts:
        _clear_table_memo()
        reports = summation._partial_wave_reports(xs[:nx], p, cfg)
        assert [r.per_epsilon for r in reports] == want[:nx], nx


def _clear_table_memo():
    summation._table_memo = (None, None)


def _cold_kernel(xs, eps, L):
    """completeness_kernel with the Legendre block memo emptied first."""
    _clear_table_memo()
    return completeness_kernel(xs, eps, L)


def test_legendre_block_memo_is_invisible():
    gauss = np.polynomial.legendre.leggauss(320)[0]
    demo = np.linspace(-1.0, 1.0, 201)
    epsilons = (0.1, 0.05, 0.025, 0.0125)
    cold = {(g, e): _cold_kernel(xs, e, 500).tobytes()
            for g, xs in enumerate((gauss, demo)) for e in epsilons}
    # an eps run at one grid, then the grids alternating at every eps
    _clear_table_memo()
    for g, xs in enumerate((gauss, demo)):
        for e in epsilons:
            assert completeness_kernel(xs, e, 500).tobytes() == cold[g, e], (g, e)
    for e in epsilons:
        for g, xs in enumerate((gauss, demo)):
            assert completeness_kernel(xs, e, 500).tobytes() == cold[g, e], (g, e)
    # Abel grids at two betas over one angle grid share the table, not the terms
    thetas = np.linspace(0.3, math.pi, 64)
    cfg = SummationConfig(l_max=600, epsilons=tuple(0.2 / 2**j for j in range(6)))
    grids = {}
    for beta in (1.0, -2.5):
        _clear_table_memo()
        grids[beta] = series_amplitudes(thetas, PhysicalParams(k=1.0, beta=beta), cfg)
    for beta in (1.0, -2.5, 1.0):
        assert series_amplitudes(thetas, PhysicalParams(k=1.0, beta=beta), cfg) == grids[beta]
    key, table = summation._table_memo
    assert key is not None
    with pytest.raises(ValueError):
        table[0, 0] = 0.0


def test_eps_run_on_one_grid_sweeps_it_once(monkeypatch):
    # a count, not a timing: the kernel-table input, four eps on 320 nodes
    # and one on 201, twice; the memo keeps the last block only, and no
    # earlier table is still alive when a new sweep starts
    sweeps, tables = [], []

    def counted(xs, L):
        sweeps.append((len(xs), sum(t() is not None for t in tables)))
        table = special_functions._legendre_table(xs, L)
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(summation, "_legendre_table", counted)
    _clear_table_memo()
    gauss = np.polynomial.legendre.leggauss(320)[0]
    for _ in range(2):
        for e in (0.1, 0.05, 0.025, 0.0125):
            completeness_kernel(gauss, e, 500)
        completeness_kernel(np.linspace(-1.0, 1.0, 201), 0.1, 500)
    assert sweeps == [(320, 0), (201, 0)] * 2


def test_legendre_block_memo_keeps_no_table_beyond_its_budget():
    completeness_kernel(np.linspace(-1.0, 1.0, 201), 0.1, 500)
    assert summation._table_memo[0] is not None
    completeness_kernel(np.linspace(-1.0, 1.0, 201), 0.1, 20000)
    _, table = summation._table_memo
    assert table is None or table.size <= summation._BLOCK_ENTRIES
    completeness_kernel([0.3], 0.1, MAX_L)
    assert summation._table_memo == (None, None)


def test_kernel_peak_memory_is_about_one_legendre_block():
    """Traced peak of a 201-point kernel at L = 20000, against a derived bound.

    At this L a Legendre block is _BLOCK_MIN = 32 abscissae and a row
    chunk is one row.  What may be alive at once is
    - the block's degree-major table, (L + 1) x 32 float64: the sweep
      walks its rows and keeps no view object per degree;
    - one row of complex terms and its damped copy, 2 (L + 1) complex128;
    - at most ten length-(L + 1) vectors of at most 16 B per entry: the
      coefficients and their factors, the damping weights, the degrees.
    That is 8.55 MiB.
    """
    L = 20000
    xs = np.linspace(-1.0, 1.0, 201)
    completeness_kernel(xs[:40], 0.1, 10)
    _clear_table_memo()
    bound = (L + 1) * summation._BLOCK_MIN * 8 + 2 * (L + 1) * 16 + 10 * (L + 1) * 16
    tracemalloc.start()
    try:
        completeness_kernel(xs, 0.1, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak / 2**20, bound / 2**20)


def test_kernel_domain_errors():
    with pytest.raises(DomainError):
        completeness_kernel([0.0, 1.2], 0.1, 10)
    # NaN fails every comparison, so it must be rejected as out of range too
    for xs in ([math.nan, 0.5], [0.5, math.nan], [math.nan]):
        with pytest.raises(DomainError):
            completeness_kernel(xs, 0.1, 10)
    with pytest.raises(ConfigError):
        completeness_kernel([0.0], -0.1, 10)
    for bad in (-1, MAX_L + 1, 2.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            completeness_kernel([0.0], 0.1, bad)


def test_kernel_rejects_a_grid_that_is_not_one_dimensional():
    # both sides of _TABLE_VECTOR_MIN: these failed inside the sweep, untyped
    for shape in ((2, 2), (30, 2), (1, 40)):
        with pytest.raises(DomainError, match=rf"1-D grid, got shape \({shape[0]}, {shape[1]}\)"):
            completeness_kernel(np.zeros(shape), 0.1, 10)
    # a scalar is a grid of one, and an empty grid gives no values
    assert completeness_kernel(0.3, 0.1, 10).tolist() == completeness_kernel([0.3], 0.1, 10).tolist()
    assert completeness_kernel([], 0.1, 10).shape == (0,)


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
    for bad in (-1, MAX_L + 1, 2.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            unregularized_partial_sums(math.pi / 2, P_1_1, bad)


def test_partial_sums_that_overflow_raise_and_finite_ones_keep_their_bits():
    # at k = 1e-320 every term / (2ik) overflows: OverflowError, no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"not finite \(theta=1.0, k=1e-320\)"):
            unregularized_partial_sums(1.0, PhysicalParams(k=1e-320, beta=1.0), 3)
    # at k = 1e-300 the sums reach about 1e300 and keep the plain formula's bits
    p = PhysicalParams(k=1e-300, beta=1.0)
    l = np.arange(41)
    terms = (2 * l + 1) * s_matrix_sequence(40, p) * _legendre_values(math.cos(1.0), 40)
    sums = unregularized_partial_sums(1.0, p, 40)
    assert sums.tobytes() == np.cumsum(terms / (2j * p.k)).tobytes()
    assert 1e299 < np.abs(sums).max() < 1e302


# ---------------------------------------------------------- concurrency

def test_concurrent_evaluations_match_serial():
    thetas = [0.4, 0.9, 1.7, 2.8]
    serial = [series_amplitude(t, P_1_1, EXAMPLE_CFG).f for t in thetas]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(
            lambda t: series_amplitude(t, P_1_1, EXAMPLE_CFG).f, thetas))
    assert serial == parallel


def test_concurrent_kernels_on_alternating_grids_match_serial():
    # threads on three kernel grids and one Abel grid keep replacing the
    # Legendre block memo, with a short switch interval to interleave the
    # sweeps; every value must still be the serial one
    grids = (np.polynomial.legendre.leggauss(320)[0], np.linspace(-1.0, 1.0, 201),
             np.linspace(-0.9, 0.9, 40))
    cfg = SummationConfig(l_max=500, epsilons=(0.1, 0.05, 0.025), extrapolation_order=2)
    thetas = np.linspace(0.3, math.pi, 64)

    def job(g, e):
        if g == len(grids):
            return series_amplitudes(thetas, PhysicalParams(k=1.0, beta=e), cfg)
        return completeness_kernel(grids[g], e, 500).tobytes()

    jobs = [(g, e) for e in (0.1, 0.05, 0.025) for g in range(len(grids) + 1)] * 3
    serial = []
    for g, e in jobs:
        _clear_table_memo()
        serial.append(job(g, e))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(job, g, e) for g, e in jobs]
            parallel = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial


def test_concurrent_default_series_across_betas_match_serial():
    # threads at three betas keep evicting each other's memo entry, with a
    # short switch interval to interleave builds; every value must still be
    # the serial one
    jobs = [(t, beta) for t in (0.2, 0.9, 2.8) for beta in (1.0, -8.0, 0.3)] * 3
    serial = [_cold_series_amplitude(t, PhysicalParams(k=1.0, beta=b)) for t, b in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(series_amplitude, t, PhysicalParams(k=1.0, beta=b))
                       for t, b in jobs]
            parallel = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial
