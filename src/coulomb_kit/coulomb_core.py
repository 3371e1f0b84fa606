"""Closed-form Coulomb scattering quantities.

For a particle of reduced mass mu scattering off the potential -kappa/r
(kappa > 0 attractive, kappa < 0 repulsive) at energy E > 0, the problem
is fixed by two numbers:

    k    = sqrt(2 mu E) / hbar          wavenumber,
    beta = kappa / (hbar v)             dimensionless Coulomb strength,

with v = sqrt(2 E / mu) the incident velocity.  The l-th partial wave is
scattered by the unimodular S-matrix element

    S_l = exp(2 i delta_l) = Gamma(l+1 - i beta) / Gamma(l+1 + i beta),

and the full amplitude has the closed form

    f(theta) = Gamma(1 - i beta) / (i Gamma(i beta))
               * exp(i beta ln sin^2(theta/2)) / (2 k sin^2(theta/2)),

valid for every theta except the forward direction, with the Rutherford
cross section |f|^2 = beta^2 / (4 k^2 sin^4(theta/2)).

The same amplitude can be reached through the auxiliary function

    G(x) = -2 S_0 exp[i beta ln((1-x)/2)] + S_0,        x = cos(theta) < 1,

which satisfies (1-x) G'(x) + i beta G(x) = i beta S_0 with boundary value
G(-1) = -S_0.  Its derivative

    g(x) = G'(x) = 2 i beta S_0 exp[i beta ln((1-x)/2)] / (1-x)

is the value the (divergent) partial-wave sum sum_l (2l+1) S_l P_l(x)
regularizes to, and f(theta) = g(cos theta) / (2ik).  The numerical
realization of that sum lives in :mod:`coulomb_kit.summation`; this module
is the analytic reference it is checked against.

All results are pure; beta = 0 short-circuits to the exact free-particle
values (S_l = 1, f = 0) instead of probing the Gamma pole at 0.  The closed
forms remember S_0's phase for up to 1024 betas: cold or warm, they give
the bits of s_matrix(0, p).S, and concurrent calls are safe.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, Record, check_cosine, check_order, check_theta
from .special_functions import MAX_GAMMA_ARGUMENT_MODULUS, log_gamma

# amplitude provenance tags
CLOSED_FORM = "closed_form"
REGULARIZED_SERIES = "regularized_series"

# Largest |beta| accepted: against mpmath, closed_amplitude and s_matrix(l <= 100)
# are within 1e-8 relative at |beta| = 1e6 (worst 5.3e-9) but not at 1e7 (8.9e-8)
MAX_ABS_BETA = 1e6


class PhysicalParams(Record):
    """Wavenumber k > 0 and dimensionless Coulomb strength beta.

    beta > 0 is attractive, beta < 0 repulsive, beta = 0 free.  |beta|
    above MAX_ABS_BETA = 1e6 raises DomainError: beyond it the closed form
    and S_l lose more than 1e-8 relative to rounding.
    """

    __slots__ = __match_args__ = ("k", "beta")

    def __init__(self, k: float, beta: float):
        if not (math.isfinite(k) and k > 0.0):
            raise DomainError(f"wavenumber k must be finite and > 0, got {k!r}")
        if not math.isfinite(beta):
            raise DomainError(f"beta must be finite, got {beta!r}")
        if abs(beta) > MAX_ABS_BETA:
            raise DomainError(f"|beta| must not exceed {MAX_ABS_BETA:g}, got {beta!r}")
        _set_k(self, k)
        _set_beta(self, beta)


class PartialWave(Record):
    """One partial wave: index l, S-matrix element S, phase shift delta.

    |S| = 1 and S = exp(2 i delta), with delta reported as the principal
    value in (-pi, pi].
    """

    __slots__ = __match_args__ = ("l", "S", "delta")

    def __init__(self, l: int, S: complex, delta: float):
        _set_l(self, l)
        _set_S(self, S)
        _set_delta(self, delta)


class AmplitudeResult(Record):
    """Scattering amplitude f at angle theta (units of length).

    method is either CLOSED_FORM or REGULARIZED_SERIES; error_estimate is
    an absolute uncertainty on |f| (zero for the closed form, which is
    exact up to rounding).  A non-finite f (e.g. k = 1e-320) raises
    OverflowError instead of being reported as a value.
    """

    __slots__ = __match_args__ = ("theta", "f", "method", "error_estimate")

    def __init__(self, theta: float, f: complex, method: str, error_estimate: float):
        if not theta > 0.0:
            raise DomainError(f"theta must be strictly positive, got {theta!r}")
        if not cmath.isfinite(f):
            raise OverflowError(f"amplitude at theta = {theta!r} is not finite: {f!r}")
        _set_theta(self, theta)
        _set_f(self, f)
        _set_method(self, method)
        _set_error_estimate(self, error_estimate)


_set_k, _set_beta = PhysicalParams.k.__set__, PhysicalParams.beta.__set__
_set_l, _set_S, _set_delta = PartialWave.l.__set__, PartialWave.S.__set__, PartialWave.delta.__set__
_set_theta, _set_f, _set_method, _set_error_estimate = (
    getattr(AmplitudeResult, n).__set__ for n in AmplitudeResult.__match_args__)


def params_from_physical(mu: float, kappa: float, E: float, hbar: float = 1.0) -> PhysicalParams:
    """Derive (k, beta) from reduced mass, coupling, energy and hbar.

    k = sqrt(2 mu E) / hbar, v = sqrt(2 E / mu), beta = kappa / (hbar v).

    Raises
    ------
    DomainError
        If mu, E or hbar is not > 0, kappa or beta is not finite, or k or hbar v is 0 or inf.
    """
    for name, value in (("mu", mu), ("E", E), ("hbar", hbar)):
        if not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"{name} must be finite and > 0, got {value!r}")
    if not math.isfinite(kappa):
        raise DomainError(f"kappa must be finite, got {kappa!r}")
    k = math.sqrt(2.0 * mu * E) / hbar
    hbar_v = hbar * math.sqrt(2.0 * E / mu)
    if not (0.0 < hbar_v < math.inf and 0.0 < k < math.inf
            and math.isfinite(kappa / hbar_v)):
        raise DomainError(f"k = {k!r} and hbar * sqrt(2 E / mu) = {hbar_v!r} must be finite "
                          f"and > 0, and kappa / (hbar v) finite, at kappa={kappa!r}, "
                          f"mu={mu!r}, E={E!r}, hbar={hbar!r}")
    return PhysicalParams(k=k, beta=kappa / hbar_v)


def _principal_angle(angle: float) -> float:
    """Reduce an angle to the principal interval (-pi, pi]."""
    wrapped = math.remainder(angle, math.tau)
    return math.pi if wrapped == -math.pi else wrapped


def s_matrix(l: int, p: PhysicalParams) -> PartialWave:
    """S-matrix element and phase shift of the l-th partial wave.

    S_l = Gamma(l+1 - i beta) / Gamma(l+1 + i beta) = exp(2 i phi) with
    phi = Im ln Gamma(l+1 - i beta), from one log-gamma call.  log_gamma
    mirrors the lower half plane exactly, so this is bit for bit
    gamma_ratio(l+1 - i beta, l+1 + i beta), and |S_l| = 1 to machine
    precision.  The phase shift delta_l is phi reduced to (-pi, pi];
    reducing by full turns leaves exp(2 i delta_l) = S_l intact.  An l
    with l + 1 beyond log_gamma's range raises DomainError.
    """
    l = check_order(l, "partial-wave index l")
    if l + 1 > MAX_GAMMA_ARGUMENT_MODULUS:
        raise DomainError(
            f"partial-wave index l is too large: l + 1 must not exceed "
            f"{MAX_GAMMA_ARGUMENT_MODULUS:g}, the range of log_gamma"
        )
    beta = p.beta
    if beta == 0.0:
        return PartialWave(l=l, S=1.0 + 0.0j, delta=0.0)
    phase = log_gamma(complex(l + 1, -beta)).imag
    return PartialWave(l=l, S=cmath.exp(2j * phase), delta=_principal_angle(phase))


# beta (S_0 has no k) -> Im ln Gamma(1 - i beta), emptied at 1024 betas; s_matrix does
# not read it: a series call makes one log-gamma call, which perfbench's traced runs time
_phase_memo = {}


def _s0_phase(beta: float) -> float:
    """Im ln Gamma(1 - i beta): S_0 = exp(2i phase), bit for bit s_matrix(0, p).S."""
    try:
        return _phase_memo[beta]
    except KeyError:
        if len(_phase_memo) >= 1024:
            _phase_memo.clear()
        phase = _phase_memo[beta] = log_gamma(complex(1.0, -beta)).imag
        return phase


def closed_auxiliary_sum(x: float, p: PhysicalParams) -> complex:
    """Closed form of the auxiliary series sum_l S_l [P_{l+1}(x) - P_{l-1}(x)].

    G(x) = -2 S_0 exp[i beta ln((1-x)/2)] + S_0 for x in [-1, 1); in
    particular G(-1) = -S_0, and G = -1 identically for beta = 0.
    """
    x = check_cosine(x)
    beta = p.beta
    if beta == 0.0:
        return -1.0 + 0.0j
    S0 = cmath.exp(2j * _s0_phase(beta))
    phase = cmath.exp(1j * beta * math.log((1.0 - x) / 2.0))
    return S0 * (1.0 - 2.0 * phase)


def closed_partial_wave_sum(x: float, p: PhysicalParams) -> complex:
    """Closed form of the regularized sum g(x) = sum_l (2l+1) S_l P_l(x).

    g is the derivative of the auxiliary function:

        g(x) = 2 i beta S_0 exp[i beta ln((1-x)/2)] / (1-x),

    and the scattering amplitude is g(cos theta) / (2ik).  Identically 0
    for beta = 0 away from x = 1.
    """
    x = check_cosine(x)
    beta = p.beta
    if beta == 0.0:
        return 0.0 + 0.0j
    S0 = cmath.exp(2j * _s0_phase(beta))
    phase = cmath.exp(1j * beta * math.log((1.0 - x) / 2.0))
    return 2j * beta * S0 * phase / (1.0 - x)


def _closed_f(theta: float, p: PhysicalParams) -> complex:
    """f(theta) of closed_amplitude for a checked theta; OverflowError if not finite."""
    beta = p.beta
    if beta == 0.0:
        return 0.0 + 0.0j
    sin_half_sq = math.sin(theta / 2.0) ** 2
    phase = 2.0 * _s0_phase(beta) + beta * math.log(sin_half_sq)
    denominator = 2.0 * p.k * sin_half_sq                # 0 once it underflows (k = 1e-320)
    f = beta * cmath.exp(1j * phase) / denominator if denominator else complex(math.inf)
    if not cmath.isfinite(f):
        raise OverflowError(f"amplitude at theta = {theta!r} is not finite: {f!r}")
    return f


def closed_amplitude(theta: float, p: PhysicalParams) -> AmplitudeResult:
    """Closed-form Coulomb scattering amplitude at angle theta in (0, pi].

    f(theta) = Gamma(1 - i beta)/(i Gamma(i beta))
               * exp(i beta ln sin^2(theta/2)) / (2 k sin^2(theta/2)),

    whose prefactor is beta S_0, as Gamma(1 + i beta) = i beta Gamma(i beta):
    one log-gamma call per beta, kept for the calls that follow at that beta.
    At beta = 0, f = 0 exactly.

    Raises
    ------
    DomainError
        If theta is within 1e-9 of the forward direction, or beyond pi.
    OverflowError
        If f is not finite (e.g. k = 1e-320).
    """
    theta = check_theta(theta)
    return AmplitudeResult(theta, _closed_f(theta, p), CLOSED_FORM, 0.0)


def differential_cross_section(theta: float, p: PhysicalParams) -> float:
    """|f(theta)|^2, the Rutherford differential cross section.

    Analytically equal to beta^2 / (4 k^2 sin^4(theta/2)).  Raises DomainError on
    theta, and OverflowError on f as closed_amplitude does or when |f|^2 overflows.
    """
    theta = check_theta(theta)
    abs_f = abs(_closed_f(theta, p))
    try:
        return abs_f ** 2
    except OverflowError:
        raise OverflowError(f"|f|^2 at theta = {theta!r} is not finite") from None


def ode_residual(x: float, p: PhysicalParams, h: float) -> float:
    """Finite-difference residual of (1-x) G'(x) + i beta G(x) = i beta S_0.

    G' is replaced by the second-order central difference with step h, so
    the residual is (1-x) h^2 |G'''(x)| / 6 + O(h^4), whose leading term is

        (h^2/3) |beta| sqrt((1+beta^2)(4+beta^2)) / (1-x)^2:

    it vanishes like h^2 and is exactly zero for beta = 0 (G constant).

    Raises
    ------
    DomainError
        If h <= 0 or the stencil [x-h, x+h] leaves (-1, 1).
    """
    x = float(x)
    h = float(h)
    if not h > 0.0:
        raise DomainError(f"step h must be > 0, got {h!r}")
    if not (-1.0 < x - h and x + h < 1.0):
        raise DomainError(
            f"stencil [{x - h!r}, {x + h!r}] must stay inside (-1, 1)"
        )
    beta = p.beta
    g_plus = closed_auxiliary_sum(x + h, p)
    g_minus = closed_auxiliary_sum(x - h, p)
    g_mid = closed_auxiliary_sum(x, p)
    S0 = cmath.exp(2j * _s0_phase(beta))
    derivative = (g_plus - g_minus) / (2.0 * h)
    return abs((1.0 - x) * derivative + 1j * beta * g_mid - 1j * beta * S0)
