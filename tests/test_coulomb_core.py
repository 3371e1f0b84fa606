"""Tests for the closed-form scattering quantities."""

import cmath
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest

from coulomb_kit import coulomb_core, summation
from coulomb_kit.coulomb_core import (
    CLOSED_FORM,
    MAX_ABS_BETA,
    AmplitudeResult,
    PhysicalParams,
    closed_amplitude,
    closed_auxiliary_sum,
    closed_partial_wave_sum,
    differential_cross_section,
    ode_residual,
    params_from_physical,
    s_matrix,
)
from coulomb_kit.errors import DomainError, check_cosine, check_theta
from coulomb_kit.special_functions import gamma_ratio, log_gamma
from coulomb_kit.summation import s_matrix_sequence, series_amplitude

# delta_l = arg Gamma(l+1 - i beta), 50-digit oracle (mpmath), frozen
PHASE_SHIFT_ORACLE = {
    (0, 0.5): 0.244058298905427763,
    (1, 0.5): -0.219589310095378354,
    (5, 0.5): -0.853740297674792808,
    (0, 1.0): 0.301640320467533198,
    (1, 1.0): -0.483757842929915112,
    (5, 1.0): -1.71153022930410833,
    (0, 2.5): -0.542604405852436528,
    (1, 2.5): -1.73289435553496826,
    (5, 2.5): 1.93725036653220251,
    (0, 5.0): 2.467286732564662,
    (1, 5.0): 1.09388596561964614,
    (5, 5.0): -2.80823435855599032,
}


def test_params_from_physical_free_particle():
    p = params_from_physical(mu=1.0, kappa=0.0, E=0.5, hbar=1.0)
    assert p.k == 1.0
    assert p.beta == 0.0


def test_params_from_physical_unit_case():
    p = params_from_physical(mu=1.0, kappa=1.0, E=0.5, hbar=1.0)
    assert p.k == 1.0
    assert p.beta == 1.0


def test_params_from_physical_derived_case():
    # k = sqrt(2*2*1) = 2, v = sqrt(2*1/2) = 1, beta = -3/(1*1) = -3
    p = params_from_physical(mu=2.0, kappa=-3.0, E=1.0, hbar=1.0)
    assert p.k == 2.0
    assert p.beta == -3.0


def test_params_from_physical_rejects_nonpositive():
    with pytest.raises(DomainError):
        params_from_physical(mu=-1.0, kappa=1.0, E=1.0)
    with pytest.raises(DomainError):
        params_from_physical(mu=1.0, kappa=1.0, E=0.0)
    with pytest.raises(DomainError):
        params_from_physical(mu=1.0, kappa=1.0, E=1.0, hbar=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="kappa"):
            params_from_physical(mu=1.0, kappa=bad, E=1.0)


def test_params_from_physical_rejects_underflowing_velocity():
    # v = sqrt(2E/mu) underflows to 0, or hbar v does: a DomainError naming
    # mu, E and hbar, not a bare ZeroDivisionError; so does a v that overflows
    # (kappa / (hbar v) would read 0.0) and a k = sqrt(2 mu E) / hbar that is 0 or inf
    for mu, E, hbar in ((1e300, 1e-300, 1.0), (1.0, 1e-300, 1e-300), (1e-300, 1e300, 1.0),
                        (1e-300, 1e-300, 1.0), (1e300, 1e300, 1.0), (1.0, 1.0, 1e-309)):
        with pytest.raises(DomainError, match=re.escape(f"mu={mu!r}, E={E!r}, hbar={hbar!r}")):
            params_from_physical(mu=mu, kappa=1.0, E=E, hbar=hbar)
    # k and hbar v are finite, but beta = kappa / (hbar v) overflows: the
    # DomainError names kappa and hbar v as well, not only "beta ... inf"
    for mu, kappa, E, hbar in ((1.0, 1e300, 1.0, 1e-308), (1.0, 1e308, 1e-300, 1.0)):
        hbar_v = hbar * math.sqrt(2.0 * E / mu)
        with pytest.raises(DomainError, match=re.escape(
                f"hbar * sqrt(2 E / mu) = {hbar_v!r} must be finite and > 0, and kappa / "
                f"(hbar v) finite, at kappa={kappa!r}, mu={mu!r}, E={E!r}, hbar={hbar!r}")):
            params_from_physical(mu=mu, kappa=kappa, E=E, hbar=hbar)
    # inputs next to those keep the bits of the two formulas
    for mu, E, hbar in ((2.0, 0.8, 1.0), (1e-150, 1e150, 1.0), (1e-154, 1e-154, 1.0)):
        p = params_from_physical(mu=mu, kappa=1.5, E=E, hbar=hbar)
        assert p.k == math.sqrt(2.0 * mu * E) / hbar
        assert p.beta == 1.5 / (hbar * math.sqrt(2.0 * E / mu))


def test_cross_section_past_a_double_names_theta():
    # |f| = 1 / (2e-160 sin^2(1/2)) is about 2.2e160: closed_amplitude returns
    # it, but |f|^2 is past the largest double
    p = PhysicalParams(k=1e-160, beta=1.0)
    assert cmath.isfinite(closed_amplitude(1.0, p).f)
    with pytest.raises(OverflowError, match=re.escape("|f|^2 at theta = 1.0 is not finite")):
        differential_cross_section(1.0, p)
    # one decade up in k, |f|^2 fits and keeps the bits of abs(f) ** 2
    q = PhysicalParams(k=1e-150, beta=1.0)
    assert differential_cross_section(1.0, q) == abs(closed_amplitude(1.0, q).f) ** 2


def test_physical_params_invariants():
    with pytest.raises(DomainError):
        PhysicalParams(k=0.0, beta=1.0)
    with pytest.raises(DomainError):
        PhysicalParams(k=-2.0, beta=1.0)
    with pytest.raises(DomainError):
        PhysicalParams(k=1.0, beta=float("inf"))
    # beyond MAX_ABS_BETA = 1e6 the closed form loses more than 1e-8 to rounding
    assert MAX_ABS_BETA == 1e6
    for beta in (MAX_ABS_BETA, -MAX_ABS_BETA):
        assert PhysicalParams(k=1.0, beta=beta).beta == beta
    for beta in (math.nextafter(MAX_ABS_BETA, math.inf), -1e7, 1e200):
        with pytest.raises(DomainError, match="beta"):
            PhysicalParams(k=1.0, beta=beta)


def test_max_abs_beta_keeps_closed_form_and_s_matrix_within_1e8():
    # the MAX_ABS_BETA claim, against mpmath: at |beta| = 1e6 the phases are
    # ~1e7 radians, so the last bit of Im ln Gamma is already ~1e-9
    with mp.workdps(40):
        for beta in (MAX_ABS_BETA, -MAX_ABS_BETA):
            p, b = PhysicalParams(k=1.0, beta=beta), mp.mpf(beta)
            ratio = mp.exp(mp.loggamma(1 - 1j * b) - mp.loggamma(1j * b)) / 1j
            for theta in (1e-6, 0.3, math.pi):
                s2 = mp.sin(mp.mpf(theta) / 2) ** 2
                ref = complex(ratio * mp.exp(1j * b * mp.log(s2)) / (2 * s2))
                assert abs(closed_amplitude(theta, p).f - ref) <= 1e-8 * abs(ref), (beta, theta)
            for l in range(101):
                ref = complex(mp.exp(mp.loggamma(l + 1 - 1j * b) - mp.loggamma(l + 1 + 1j * b)))
                assert abs(s_matrix(l, p).S - ref) <= 1e-8, (beta, l)


def test_amplitude_result_rejects_nonfinite_amplitude():
    for f in (complex(math.inf, 0.0), complex(0.0, -math.inf), complex(math.nan, 1.0)):
        with pytest.raises(OverflowError):
            AmplitudeResult(theta=1.0, f=f, method=CLOSED_FORM, error_estimate=0.0)
    # k = 1e-320 is a valid wavenumber, but f = g / (2ik) overflows; at
    # theta = 0.01 and 0.02 its divisor 2k sin^2(theta/2) underflows to 0
    for theta in (1.0, 0.025, 0.02, 0.01):
        with pytest.raises(OverflowError, match="is not finite"):
            closed_amplitude(theta, PhysicalParams(k=1e-320, beta=1.0))
        with pytest.raises(OverflowError, match="is not finite"):
            differential_cross_section(theta, PhysicalParams(k=1e-320, beta=1.0))


def test_s_matrix_free_particle():
    p = PhysicalParams(k=1.0, beta=0.0)
    for l in (0, 1, 17):
        pw = s_matrix(l, p)
        assert pw.S == 1.0 + 0.0j
        assert pw.delta == 0.0


def test_s_matrix_against_phase_oracle():
    for (l, beta), delta_ref in PHASE_SHIFT_ORACLE.items():
        pw = s_matrix(l, PhysicalParams(k=1.0, beta=beta))
        assert abs(pw.delta - delta_ref) <= 1e-13, (l, beta)


def test_s_matrix_l0_beta1_value():
    # S_0 = exp(2i arg Gamma(1-i)) = exp(0.6032806409...i)
    pw = s_matrix(0, PhysicalParams(k=1.0, beta=1.0))
    assert abs(pw.S - cmath.exp(0.60328064093506639578j)) <= 1e-14
    assert abs(pw.delta - 0.30164032046753319789) <= 1e-14


def test_s_matrix_unitarity_and_phase_relation():
    for beta in (0.1, -0.1, 1.0, -1.0, 5.0, -5.0):
        p = PhysicalParams(k=1.0, beta=beta)
        for l in range(0, 501, 25):
            pw = s_matrix(l, p)
            assert abs(abs(pw.S) - 1.0) <= 1e-13
            assert abs(pw.S - cmath.exp(2j * pw.delta)) <= 1e-12
            assert -math.pi < pw.delta <= math.pi


def test_s_matrix_ladder_relation_example():
    # (l+1-ib) S_l = (l+1+ib) S_{l+1} at (l, beta) = (3, 2.5)
    p = PhysicalParams(k=1.0, beta=2.5)
    lhs = (4 - 2.5j) * s_matrix(3, p).S
    rhs = (4 + 2.5j) * s_matrix(4, p).S
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_s_matrix_rejects_negative_l():
    for bad in (-1, 2.5, math.nan, math.inf, 10**400):
        with pytest.raises(DomainError, match="index l"):
            s_matrix(bad, PhysicalParams(k=1.0, beta=1.0))


def test_s_matrix_equals_gamma_ratio_bitwise():
    # one log-gamma call gives the bits of the conjugate Gamma ratio
    for b in (0.1, -0.1, 1.0, -1.0, 5.0, -5.0, 37.0, -37.0):
        p = PhysicalParams(k=1.0, beta=b)
        for l in range(101):
            assert s_matrix(l, p).S == gamma_ratio(complex(l + 1, -b), complex(l + 1, b)), (l, b)


def test_auxiliary_sum_free_particle_is_minus_one():
    p = PhysicalParams(k=1.0, beta=0.0)
    for x in (-1.0, -0.3, 0.0, 0.9):
        assert closed_auxiliary_sum(x, p) == -1.0 + 0.0j


def test_auxiliary_sum_boundary_value():
    # at x = -1 the auxiliary function equals -S_0
    for beta in (0.5, -1.0, 3.0):
        p = PhysicalParams(k=1.0, beta=beta)
        S0 = s_matrix(0, p).S
        assert abs(closed_auxiliary_sum(-1.0, p) - (-S0)) <= 1e-14


def test_auxiliary_sum_at_zero():
    # direct substitution: ln((1-0)/2) = -ln 2
    p = PhysicalParams(k=1.0, beta=1.0)
    S0 = s_matrix(0, p).S
    expected = S0 * (1 - 2 * cmath.exp(-1j * math.log(2.0)))
    assert abs(closed_auxiliary_sum(0.0, p) - expected) <= 1e-15


def test_partial_wave_sum_free_particle_is_zero():
    p = PhysicalParams(k=1.0, beta=0.0)
    for x in (-1.0, 0.2, 0.99):
        assert closed_partial_wave_sum(x, p) == 0.0 + 0.0j


def test_sums_reject_forward_branch_point():
    p = PhysicalParams(k=1.0, beta=1.0)
    for fn in (closed_partial_wave_sum, closed_auxiliary_sum):
        with pytest.raises(DomainError):
            fn(1.0, p)
        with pytest.raises(DomainError):
            fn(1.5, p)
        with pytest.raises(DomainError):
            fn(-1.0000001, p)


def test_amplitude_equals_partial_wave_sum_route():
    # f(theta) = g(cos theta) / (2ik), 50-point grid
    for beta in (0.5, -0.5, 2.0, -2.0):
        p = PhysicalParams(k=1.3, beta=beta)
        for theta in np.linspace(0.05, math.pi, 50):
            f_direct = closed_amplitude(float(theta), p).f
            f_via_sum = closed_partial_wave_sum(math.cos(theta), p) / (2j * p.k)
            assert abs(f_direct - f_via_sum) <= 1e-12 * abs(f_direct)


def test_amplitude_free_particle_is_zero():
    p = PhysicalParams(k=2.0, beta=0.0)
    r = closed_amplitude(1.0, p)
    assert r.f == 0.0 + 0.0j
    assert r.method == CLOSED_FORM
    assert r.error_estimate == 0.0


def test_amplitude_modulus_identity():
    # |f| = |beta| / (2 k sin^2(theta/2))
    for beta in (0.25, -1.0, 5.0):
        for k in (0.5, 3.0):
            p = PhysicalParams(k=k, beta=beta)
            for theta in np.linspace(0.1, math.pi, 25):
                f = closed_amplitude(float(theta), p).f
                ref = abs(beta) / (2 * k * math.sin(theta / 2) ** 2)
                assert abs(abs(f) - ref) <= 1e-12 * ref


def test_amplitude_backward_modulus_half():
    f = closed_amplitude(math.pi, PhysicalParams(k=1.0, beta=1.0)).f
    assert abs(abs(f) - 0.5) <= 1e-13


def test_amplitude_conjugation_symmetry():
    # f(theta; -beta) = -conj(f(theta; beta))
    for beta in (0.5, 2.0):
        for theta in (0.3, 1.0, 2.5, math.pi):
            f_plus = closed_amplitude(theta, PhysicalParams(k=1.0, beta=beta)).f
            f_minus = closed_amplitude(theta, PhysicalParams(k=1.0, beta=-beta)).f
            assert abs(f_minus + f_plus.conjugate()) <= 1e-12 * abs(f_plus)


def test_amplitude_rejects_forward_angles():
    p = PhysicalParams(k=1.0, beta=1.0)
    with pytest.raises(DomainError):
        closed_amplitude(0.0, p)
    with pytest.raises(DomainError):
        closed_amplitude(1e-10, p)
    with pytest.raises(DomainError):
        closed_amplitude(math.pi + 1e-6, p)
    with pytest.raises(DomainError):
        closed_amplitude(-0.5, p)
    for amplitude in (closed_amplitude, series_amplitude):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="finite"):
                amplitude(bad, p)


def test_cross_section_free_particle():
    p = PhysicalParams(k=1.0, beta=0.0)
    assert differential_cross_section(2.0, p) == 0.0


def test_cross_section_backward_point():
    assert differential_cross_section(math.pi, PhysicalParams(k=1.0, beta=1.0)) == \
        pytest.approx(0.25, rel=1e-12)


def test_cross_section_rutherford_value():
    # beta^2/(4 k^2 sin^4(theta/2)) = 2.25/(16*0.25) at k=2, beta=1.5, theta=pi/2
    dcs = differential_cross_section(math.pi / 2, PhysicalParams(k=2.0, beta=1.5))
    assert dcs == pytest.approx(0.5625, rel=1e-12)


def test_cross_section_matches_rutherford_formula():
    for beta in (0.25, -1.0, 5.0):
        for k in (0.5, 1.0, 3.0):
            p = PhysicalParams(k=k, beta=beta)
            for theta in np.linspace(math.pi / 36, math.pi, 40):
                ref = beta**2 / (4 * k**2 * math.sin(theta / 2) ** 4)
                assert differential_cross_section(float(theta), p) == \
                    pytest.approx(ref, rel=1e-12)


def test_ode_residual_free_particle_exactly_zero():
    p = PhysicalParams(k=1.0, beta=0.0)
    assert ode_residual(0.3, p, 1e-4) == 0.0


def test_ode_residual_small_at_center():
    p = PhysicalParams(k=1.0, beta=1.0)
    assert ode_residual(0.0, p, 1e-4) <= 1e-7


def test_ode_residual_second_order_in_h():
    p = PhysicalParams(k=1.0, beta=2.0)
    r1 = ode_residual(-0.5, p, 1e-4)
    r2 = ode_residual(-0.5, p, 5e-5)
    assert 3.7 <= r1 / r2 <= 4.3


def test_ode_residual_stencil_domain():
    p = PhysicalParams(k=1.0, beta=1.0)
    with pytest.raises(DomainError):
        ode_residual(0.9999, p, 1e-3)
    with pytest.raises(DomainError):
        ode_residual(-0.99995, p, 1e-4)
    with pytest.raises(DomainError):
        ode_residual(0.0, p, 0.0)


# The closed forms as written before S_0's phase was memoized: one log_gamma
# call per call.  Every closed-form output must keep these bits.

def _reference_amplitude(theta, p):
    theta = check_theta(theta)
    beta = p.beta
    if beta == 0.0:
        return AmplitudeResult(theta=theta, f=0.0 + 0.0j, method=CLOSED_FORM, error_estimate=0.0)
    sin_half_sq = math.sin(theta / 2.0) ** 2
    phase = 2.0 * log_gamma(complex(1.0, -beta)).imag + beta * math.log(sin_half_sq)
    denominator = 2.0 * p.k * sin_half_sq
    f = beta * cmath.exp(1j * phase) / denominator if denominator else complex(math.inf)
    return AmplitudeResult(theta=theta, f=f, method=CLOSED_FORM, error_estimate=0.0)


def _reference_cross_section(theta, p):
    abs_f = abs(_reference_amplitude(theta, p).f)
    if math.isinf(abs_f * abs_f):  # f is finite, |f|^2 is past the largest double
        raise OverflowError(f"|f|^2 at theta = {check_theta(theta)!r} is not finite")
    return abs_f ** 2


def _reference_auxiliary_sum(x, p):
    x = check_cosine(x)
    if p.beta == 0.0:
        return -1.0 + 0.0j
    phase = cmath.exp(1j * p.beta * math.log((1.0 - x) / 2.0))
    return s_matrix(0, p).S * (1.0 - 2.0 * phase)


def _reference_partial_wave_sum(x, p):
    x = check_cosine(x)
    if p.beta == 0.0:
        return 0.0 + 0.0j
    phase = cmath.exp(1j * p.beta * math.log((1.0 - x) / 2.0))
    return 2j * p.beta * s_matrix(0, p).S * phase / (1.0 - x)


def _reference_ode_residual(x, p, h):
    if not (-1.0 < x - h and x + h < 1.0):
        raise DomainError(f"stencil [{x - h!r}, {x + h!r}] must stay inside (-1, 1)")
    g_plus = _reference_auxiliary_sum(x + h, p)
    g_minus = _reference_auxiliary_sum(x - h, p)
    g_mid = _reference_auxiliary_sum(x, p)
    S0 = s_matrix(0, p).S
    derivative = (g_plus - g_minus) / (2.0 * h)
    return abs((1.0 - x) * derivative + 1j * p.beta * g_mid - 1j * p.beta * S0)


def _outcome(fn, *args):
    """repr of the value (so -0.0 and every last bit count), or the error."""
    try:
        return repr(fn(*args))
    except (DomainError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def _closed_outcomes(theta, x, p):
    return (_outcome(closed_amplitude, theta, p),
            _outcome(differential_cross_section, theta, p),
            _outcome(closed_auxiliary_sum, x, p),
            _outcome(closed_partial_wave_sum, x, p),
            _outcome(ode_residual, x, p, 1e-4))


def _reference_outcomes(theta, x, p):
    return (_outcome(_reference_amplitude, theta, p),
            _outcome(_reference_cross_section, theta, p),
            _outcome(_reference_auxiliary_sum, x, p),
            _outcome(_reference_partial_wave_sum, x, p),
            _outcome(_reference_ode_residual, x, p, 1e-4))


def _clear_phase_memo():
    coulomb_core._phase_memo.clear()


def test_closed_forms_keep_the_bits_of_one_log_gamma_per_call():
    # seeded betas of either sign from the smallest subnormal to 1e6, with
    # angles at both ends of the accepted range and just outside it, and
    # k = 1e-320, where f overflows (below theta ~ 0.023 2k sin^2(theta/2)
    # underflows to 0, and f = inf stands for the quotient, so both raise
    # OverflowError); the memo stays warm between betas, so a phase kept
    # for the wrong beta would show
    rng = np.random.default_rng(24)
    betas = [0.0, -0.0, 5e-324, -5e-324, 1e6, -1e6]
    betas += [float(s * 10.0**e) for s, e in zip(rng.choice((-1.0, 1.0), 60),
                                                 rng.uniform(-323.0, 6.0, 60))]
    thetas = [1e-9, math.pi, math.pi + 1e-9, 5e-10, 3.2] + [float(t) for t in rng.uniform(1e-9, math.pi, 6)]
    xs = [-1.0, 0.999, 1.0] + [float(x) for x in rng.uniform(-0.99, 0.99, 6)]
    _clear_phase_memo()
    for beta in betas:
        for k in (1.0, 0.7, 1e-320):
            p = PhysicalParams(k=k, beta=beta)
            for theta, x in zip(thetas, xs + xs[:2]):
                assert _closed_outcomes(theta, x, p) == _reference_outcomes(theta, x, p), \
                    (beta, k, theta, x)


def test_interleaved_betas_give_cold_call_bits():
    cases = [(float(t), float(x)) for t, x in zip(np.linspace(0.1, math.pi, 7),
                                                  np.linspace(-0.9, 0.9, 7))]
    p, q = PhysicalParams(k=1.3, beta=0.7), PhysicalParams(k=0.4, beta=-42.0)
    cold = {}
    for params in (p, q):
        for theta, x in cases:
            _clear_phase_memo()
            cold[params, theta] = _closed_outcomes(theta, x, params)
    for theta, x in cases:
        for params in (p, q):
            assert _closed_outcomes(theta, x, params) == cold[params, theta], (params, theta)


def test_closed_forms_call_log_gamma_once_per_beta(monkeypatch):
    # a count, not a timing: a 2000-angle table at one beta, amplitude and
    # cross section, and the ODE check at that beta need one call in all
    calls = []

    def counted(z):
        calls.append(z)
        return log_gamma(z)

    monkeypatch.setattr(coulomb_core, "log_gamma", counted)
    _clear_phase_memo()
    p = PhysicalParams(k=1.0, beta=1.3)
    for theta in np.linspace(0.05, math.pi, 2000):
        closed_amplitude(float(theta), p)
        differential_cross_section(float(theta), p)
    ode_residual(0.2, p, 1e-4)
    assert calls == [complex(1.0, -1.3)]
    # another beta costs one more call, whatever k is
    ode_residual(0.2, PhysicalParams(k=5.0, beta=-2.0), 1e-4)
    closed_amplitude(1.0, PhysicalParams(k=0.1, beta=-2.0))
    assert calls == [complex(1.0, -1.3), complex(1.0, 2.0)]
    # back at 1.3 the closed forms make no call; the series side does not read
    # the memo: s_matrix(0, p) makes its own call, with the memo's bits, and so
    # does each S ladder built on it, the reduced coefficients' included (the
    # benchmark's traced runs, at the workload's own beta, time log_gamma there)
    del calls[:]
    monkeypatch.setattr(summation, "_reduced_memo", (None, {}))
    closed_amplitude(0.5, p)
    assert s_matrix(0, p).S == cmath.exp(2j * coulomb_core._s0_phase(1.3))
    s_matrix_sequence(512, p)
    series_amplitude(1.0, p)
    assert calls == [complex(1.0, -1.3)] * 3


def test_phase_memo_holds_at_most_1024_betas_and_keeps_cold_bits(monkeypatch):
    # 2000 distinct betas of either sign: the memo empties itself rather than
    # grow past 1024, and a phase read back from it is the cold call's
    rng = np.random.default_rng(34)
    betas = [float(s * 10.0**e) for s, e in zip(rng.choice((-1.0, 1.0), 2000),
                                                 rng.uniform(-3.0, 6.0, 2000))]
    assert len(set(betas)) == 2000
    cold = []
    for beta in betas:
        _clear_phase_memo()
        cold.append(closed_amplitude(2.0, PhysicalParams(k=1.0, beta=beta)).f)
    calls = []

    def counted(z):
        calls.append(z)
        return log_gamma(z)

    monkeypatch.setattr(coulomb_core, "log_gamma", counted)
    _clear_phase_memo()
    filled = [closed_amplitude(2.0, PhysicalParams(k=1.0, beta=beta)).f for beta in betas]
    kept = len(coulomb_core._phase_memo)
    assert len(calls) == 2000 and 0 < kept <= 1024
    warm = [closed_amplitude(2.0, PhysicalParams(k=1.0, beta=beta)).f for beta in betas[-kept:]]
    assert len(calls) == 2000
    assert filled == cold and warm == cold[-kept:]


def test_concurrent_closed_forms_across_betas_match_serial():
    # six threads at three betas keep evicting each other's phase, with a
    # short switch interval to interleave the memo's read and write; every
    # value must still be the cold one
    cases = [(float(t), float(x)) for t, x in zip(np.linspace(0.1, math.pi, 40),
                                                  np.linspace(-0.9, 0.9, 40))]
    jobs = [(t, x, PhysicalParams(k=1.0, beta=b)) for t, x in cases for b in (1.0, -8.0, 0.3)]
    serial = []
    for job in jobs:
        _clear_phase_memo()
        serial.append(_closed_outcomes(*job))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(_closed_outcomes, *job) for job in jobs * 5]
            parallel = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial * 5
