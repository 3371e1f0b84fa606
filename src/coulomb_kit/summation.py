"""Regularized numerical evaluation of the Coulomb partial-wave series.

The partial-wave sum

    g(x) = sum_{l=0}^inf (2l+1) S_l P_l(x),        x = cos(theta),

does not converge in the ordinary sense: its terms do not even tend to
zero (the free sum of the same shape is a delta distribution supported at
x = 1, and the Coulomb phases only rotate each term).  The series is
nevertheless summable in the Abel sense, and this module realizes that
numerically:

1.  damp the terms with exp(-eps l) for a decreasing schedule of
    smoothing parameters eps,
2.  truncate at l_max, chosen so the damping at the truncation point is
    already tiny,
3.  extrapolate the damped values to eps -> 0 with Neville's scheme
    through the smallest few eps points.

Against the closed forms in :mod:`coulomb_kit.coulomb_core` the default
schedule agrees to 1e-7 .. 2e-5 relative at theta = pi/6 and pi/2 for
0.05 <= |beta| <= 5.  At theta = pi the error is set by the truncation,
about 1.95e-4/|beta| (2.0e-4 at beta = 1, 3.9e-3 at beta = 0.05), because
l_max ignores the (2l+1)|P_l| growth at x = -1 (ROADMAP item 1).  Each
:class:`ConvergenceReport` carries the per-eps values so the approach to
the limit can be inspected.

Partial waves are generated from S_0 by the exact ladder

    S_{l+1} = S_l (l+1 - i beta) / (l+1 + i beta),

one Gamma evaluation in total, and cross-checked every 64 steps against
the direct Gamma-ratio definition, all checkpoints in one vectorised
log-gamma call.

Every term builder draws P_l from one Legendre sweep across many
abscissae (:func:`coulomb_kit.special_functions._legendre_table`), run in
blocks of a few MiB, and reduces each abscissa's terms over the
contiguous l axis.  A grid of angles (:func:`series_amplitudes`,
:func:`completeness_kernel`) shares one S_l sequence, one set of damping
weights and one sweep per block, and gives the same bits as one call per
angle, because each row is summed in the same order as a single
abscissa's terms.

Everything here is pure computation: identical inputs produce
bit-identical reports, and concurrent calls are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma

from .coulomb_core import (
    REGULARIZED_SERIES,
    AmplitudeResult,
    PhysicalParams,
    closed_partial_wave_sum,
    s_matrix,
)
from .errors import ConfigError, DomainError, check_cosine, check_order, check_theta
# kept private: perfbench's tracer wraps public names, so its time would count twice
from .special_functions import _legendre_table

# ln(1e8): damping at the truncation point for the smallest eps
_TAIL_LOG_TARGET = 18.4

# ladder cross-validation cadence and tolerance
_LADDER_CHECK_STRIDE = 64
_LADDER_DRIFT_TOL = 1e-10

# Abscissae per Legendre block: at least _BLOCK_MIN, so that the vector
# sweep pays for itself, and otherwise about _BLOCK_ENTRIES float64 entries,
# so that a block's P, its complex terms and their damped copy stay at a
# few MiB whatever l_max is.
_BLOCK_MIN = 32
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class SummationConfig:
    """Truncation order, Abel smoothing schedule and extrapolation settings.

    Attributes
    ----------
    l_max : int
        Truncation order of the partial-wave sum, >= 1.
    epsilons : tuple of float
        Strictly decreasing positive smoothing parameters.
    extrapolation_order : int
        0 takes the smallest-eps value as the result; n >= 1 runs
        polynomial extrapolation to eps = 0 through the smallest n+1
        points.  Must be < len(epsilons).
    """

    l_max: int
    epsilons: tuple
    extrapolation_order: int = 4

    def __post_init__(self):
        object.__setattr__(self, "l_max", int(self.l_max))
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        object.__setattr__(self, "extrapolation_order", int(self.extrapolation_order))
        if self.l_max < 1:
            raise ConfigError(f"l_max must be >= 1, got {self.l_max!r}")
        if not self.epsilons:
            raise ConfigError("epsilons must be non-empty")
        if any(not (math.isfinite(e) and e > 0.0) for e in self.epsilons):
            raise ConfigError(f"epsilons must all be finite and > 0, got {self.epsilons}")
        if any(b >= a for a, b in zip(self.epsilons, self.epsilons[1:])):
            raise ConfigError(f"epsilons must be strictly decreasing, got {self.epsilons}")
        if not 0 <= self.extrapolation_order < len(self.epsilons):
            raise ConfigError(
                f"extrapolation_order must lie in [0, {len(self.epsilons) - 1}], "
                f"got {self.extrapolation_order!r}"
            )


def default_config(
    eps_first: float = 0.1,
    eps_ratio: float = 2.0,
    eps_count: int = 6,
    extrapolation_order: int = 4,
    l_max: int | None = None,
) -> SummationConfig:
    """Geometric eps schedule with a truncation order matched to it.

    The default is eps = 0.1, 0.05, ..., 0.1/2^5 with fourth-order
    extrapolation.  When l_max is not given it is set to
    ceil(18.4 / eps_min), which makes the damping factor at the
    truncation point about 1e-8 for the smallest eps.
    """
    if eps_count < 1:
        raise ConfigError(f"eps_count must be >= 1, got {eps_count}")
    if not (math.isfinite(eps_ratio) and eps_ratio > 1.0):
        raise ConfigError(f"eps_ratio must be finite and > 1, got {eps_ratio}")
    if not (math.isfinite(eps_first) and eps_first > 0.0):
        raise ConfigError(f"eps_first must be finite and > 0, got {eps_first!r}")
    epsilons = tuple(eps_first / eps_ratio**j for j in range(eps_count))
    if l_max is None:
        l_max = math.ceil(_TAIL_LOG_TARGET / epsilons[-1])
    return SummationConfig(
        l_max=l_max,
        epsilons=epsilons,
        extrapolation_order=extrapolation_order,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-eps damped sums, their extrapolation, and diagnostics.

    Attributes
    ----------
    epsilons : tuple of float
        The smoothing schedule that was run.
    per_epsilon : tuple of complex
        Damped sum for each eps, same order as epsilons.
    extrapolated : complex
        Value extrapolated to eps = 0 (or the smallest-eps value when
        extrapolation_order = 0).
    tail_estimate : float
        |last retained damped term| / |damped sum| at the smallest eps.
    extrapolation_noise : float
        Change between the last two extrapolation orders: a cheap
        internal uncertainty estimate.
    reference : complex or None
        Closed-form value, when a comparison was requested.
    abs_error : float or None
        |extrapolated - reference|; present exactly when reference is.
    """

    epsilons: tuple
    per_epsilon: tuple
    extrapolated: complex
    tail_estimate: float
    extrapolation_noise: float = 0.0
    reference: complex | None = None
    abs_error: float | None = None


def s_matrix_sequence(l_max: int, p: PhysicalParams) -> np.ndarray:
    """S_0 .. S_{l_max} generated by the exact recurrence ladder.

    Starts from the single Gamma evaluation S_0 and applies
    S_{l+1} = S_l (l+1 - i beta)/(l+1 + i beta) as a cumulative product.
    Every 64 steps the running value is compared with the direct
    Gamma-ratio definition; drift beyond 1e-10 raises ArithmeticError
    (it would indicate a numerical defect, not a user error).
    """
    l_max = check_order(l_max, "l_max")
    if p.beta == 0.0:
        return np.ones(l_max + 1, dtype=complex)
    S0 = s_matrix(0, p).S
    j = np.arange(1, l_max + 1)
    factors = (j - 1j * p.beta) / (j + 1j * p.beta)
    S = S0 * np.concatenate(([1.0 + 0.0j], np.cumprod(factors)))
    # S_l = exp(2i Im lnGamma(l+1 - i beta)) = exp(-2i sign(beta) Im lnGamma(l+1 + i|beta|))
    checked = np.arange(_LADDER_CHECK_STRIDE, l_max + 1, _LADDER_CHECK_STRIDE)
    phase = loggamma(checked + 1.0 + 1j * abs(p.beta)).imag
    direct = np.exp(-2j * math.copysign(1.0, p.beta) * phase)
    drift = np.abs(S[checked] - direct)
    bad = np.flatnonzero(drift > _LADDER_DRIFT_TOL)
    if bad.size:
        raise ArithmeticError(
            f"S-matrix ladder drifted {drift[bad[0]]:.3e} from the direct "
            f"Gamma ratio at l={checked[bad[0]]} (beta={p.beta!r})"
        )
    return S


def _damping_weights(epsilons, n_terms: int) -> np.ndarray:
    """Abel factors exp(-eps l), one row per eps over l = 0 .. n_terms-1; eps = 0 means none."""
    eps = np.asarray(epsilons, dtype=float)[:, None]
    l = np.arange(n_terms, dtype=float)
    return np.exp(-eps * l)


def _damped_sum(terms: np.ndarray, epsilon: float) -> complex:
    """One abscissa's damped sum: the reference the kernel's sums must equal."""
    return complex(np.sum(terms * _damping_weights([epsilon], len(terms))[0]))


def _damped_sums(xs: np.ndarray, coefficients: np.ndarray, weights: np.ndarray):
    """Damped sums of c_l P_l(x) at every abscissa, for every row of weights.

    Returns (sums, last): sums[i, j] = sum_l c_l P_l(xs[i]) weights[j, l]
    and last[i] = c_L P_L(xs[i]), the undamped last term.  P_l comes from
    one Legendre sweep per block of abscissae, and each row is reduced
    over the contiguous l axis exactly as :func:`_damped_sum` sums one
    abscissa, so the results agree bit for bit.  A matrix product would
    not: BLAS accumulates in another order.
    """
    L = len(coefficients) - 1
    sums = np.empty((xs.size, len(weights)), dtype=complex)
    last = np.empty(xs.size, dtype=complex)
    for block in _blocks(xs.size, L):
        terms = coefficients * _legendre_table(xs[block], L)
        for j, w in enumerate(weights):
            sums[block, j] = np.sum(terms * w, axis=-1)
        last[block] = terms[:, -1]
    return sums, last


def _blocks(n: int, L: int) -> list:
    """Slices of n abscissae, each small enough for one Legendre block."""
    step = max(_BLOCK_MIN, _BLOCK_ENTRIES // (L + 1))
    return [slice(start, start + step) for start in range(0, n, step)]


def _neville_at_zero(epsilons, values):
    """Polynomial through (eps_i, v_i), evaluated at eps = 0, by Neville.

    Returns (value, last_correction): the extrapolant and its change from
    the previous order, the latter serving as a noise estimate.
    """
    t = list(values)
    n = len(t)
    second_highest = values[-1]
    for m in range(1, n):
        for i in range(n - m):
            # incremental form: exact when neighbouring columns agree
            t[i] = t[i + 1] + epsilons[i + m] * (t[i] - t[i + 1]) / (
                epsilons[i + m] - epsilons[i]
            )
        if m == n - 2:
            second_highest = t[0]
    return t[0], abs(t[0] - second_highest)


def _series_report(
    last_term: complex, per_eps, cfg: SummationConfig, reference: complex | None
) -> ConvergenceReport:
    """Extrapolation and diagnostics from one abscissa's damped sums.

    ``last_term`` is the undamped term at l = l_max; its damped size over
    the smallest-eps sum is the tail estimate.
    """
    per_eps = tuple(complex(v) for v in per_eps)
    eps_min = cfg.epsilons[-1]
    damped_last = abs(complex(last_term)) * math.exp(-eps_min * float(cfg.l_max))
    denom = abs(per_eps[-1])
    tail = damped_last / denom if denom > 0.0 else damped_last

    order = cfg.extrapolation_order
    if order == 0:
        extrapolated = per_eps[-1]
        noise = abs(per_eps[-1] - per_eps[-2]) if len(per_eps) >= 2 else 0.0
    else:
        extrapolated, noise = _neville_at_zero(
            cfg.epsilons[-(order + 1):], per_eps[-(order + 1):]
        )

    return ConvergenceReport(
        epsilons=cfg.epsilons,
        per_epsilon=per_eps,
        extrapolated=extrapolated,
        tail_estimate=tail,
        extrapolation_noise=noise,
        reference=reference,
        abs_error=abs(extrapolated - reference) if reference is not None else None,
    )


def smoothed_partial_wave_sum(
    x: float,
    p: PhysicalParams,
    cfg: SummationConfig,
    reference: complex | None = None,
) -> ConvergenceReport:
    """Abel-regularized evaluation of sum_l (2l+1) S_l P_l(x).

    For each eps in the schedule the damped, truncated sum

        sum_{l=0}^{l_max} (2l+1) S_l P_l(x) exp(-eps l)

    is formed, then extrapolated to eps = 0.  Supplying the closed-form
    value as ``reference`` fills in ``abs_error``.

    Raises
    ------
    DomainError
        If x is outside [-1, 1) (the sum is a delta-type singularity at
        x = 1 and is not evaluated there).
    """
    x = check_cosine(x)
    return _partial_wave_reports([x], p, cfg, [reference])[0]


def _partial_wave_reports(xs, p: PhysicalParams, cfg: SummationConfig, references) -> list:
    """One report per validated abscissa: one S_l sequence, one sweep per block."""
    coefficients = (2 * np.arange(cfg.l_max + 1) + 1) * s_matrix_sequence(cfg.l_max, p)
    weights = _damping_weights(cfg.epsilons, cfg.l_max + 1)
    sums, last = _damped_sums(np.asarray(xs, dtype=float), coefficients, weights)
    return [_series_report(t, s, cfg, r) for t, s, r in zip(last, sums, references)]


def smoothed_auxiliary_sum(
    x: float,
    p: PhysicalParams,
    cfg: SummationConfig,
    reference: complex | None = None,
) -> ConvergenceReport:
    """Abel-regularized evaluation of sum_l S_l [P_{l+1}(x) - P_{l-1}(x)].

    Same scheme as :func:`smoothed_partial_wave_sum` applied to the
    auxiliary series (P_{-1} == 0).  At x = -1 only the l = 0 term
    survives, so every damped sum equals -S_0 exactly.
    """
    x = check_cosine(x)
    P = _legendre_table([x], cfg.l_max + 1)[0]
    S = s_matrix_sequence(cfg.l_max, p)
    upper = P[1:]                                        # P_{l+1}
    lower = np.concatenate(([0.0], P[: cfg.l_max]))      # P_{l-1}, P_{-1} = 0
    terms = S * (upper - lower)
    per_eps = np.sum(terms * _damping_weights(cfg.epsilons, len(terms)), axis=-1)
    return _series_report(terms[-1], per_eps, cfg, reference)


def series_amplitude(
    theta: float,
    p: PhysicalParams,
    cfg: SummationConfig | None = None,
    compare_closed: bool = True,
) -> AmplitudeResult:
    """Scattering amplitude from the regularized partial-wave series.

    f(theta) = [regularized sum at x = cos theta] / (2ik).  With
    ``compare_closed`` (the default) the closed form is evaluated too and
    the amplitude's ``error_estimate`` is the actual absolute deviation
    from it; otherwise the estimate falls back to the extrapolation noise.

    Angles below pi/36 are admitted but converge slowly, and nothing
    flags them; theta = 0 is rejected.
    """
    return series_amplitudes([theta], p, cfg, compare_closed)[0]


def series_amplitudes(
    thetas,
    p: PhysicalParams,
    cfg: SummationConfig | None = None,
    compare_closed: bool = True,
) -> list:
    """:func:`series_amplitude` over a grid of angles, in grid order.

    The S_l sequence and the damping weights are computed once for the
    grid and the Legendre sweep runs once per block of angles; element i
    equals ``series_amplitude(thetas[i], p, cfg, compare_closed)`` bit
    for bit.
    """
    thetas = [check_theta(t) for t in thetas]
    if cfg is None:
        cfg = default_config()
    xs = [check_cosine(math.cos(t)) for t in thetas]
    references = [closed_partial_wave_sum(x, p) if compare_closed else None for x in xs]
    reports = _partial_wave_reports(xs, p, cfg, references)
    amplitudes = []
    for theta, report in zip(thetas, reports):
        scale = 2.0 * p.k
        if report.abs_error is not None:
            estimate = report.abs_error / scale
        else:
            estimate = report.extrapolation_noise / scale
        f = report.extrapolated / (2j * p.k)
        amplitudes.append(AmplitudeResult(
            theta=theta, f=f, method=REGULARIZED_SERIES, error_estimate=estimate
        ))
    return amplitudes


def completeness_kernel(x_grid, epsilon: float, L: int) -> np.ndarray:
    """Damped completeness sum sum_{l=0}^{L} (2l+1) exp(-eps l) P_l(x).

    This is the free (S_l = 1) version of the partial-wave sum: as
    eps -> 0 it concentrates its mass at x = 1 while its integral over
    [-1, 1] stays exactly 2 (Legendre orthogonality kills every l >= 1
    term).  With t = exp(-eps) and L -> infinity its closed form is

        (1 - t^2) / (1 - 2 x t + t^2)^(3/2),

    which is (1 + t) / (1 - t)^2 at x = 1, unbounded as eps -> 0, while
    at a fixed x < 1 the value peaks near eps = sqrt(1 - x) and then
    decays to 0.  It is evaluated by the same damped-sum kernel as
    :func:`smoothed_partial_wave_sum`, so the two agree bit for bit when
    the S-matrix is trivial.

    Returns
    -------
    np.ndarray
        Kernel values, one per grid abscissa.
    """
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ConfigError(f"epsilon must be finite and > 0, got {epsilon!r}")
    L = check_order(L, "L")
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    if not np.all((xs >= -1.0) & (xs <= 1.0)):
        raise DomainError("all kernel abscissae must lie in [-1, 1]")
    coefficients = (2 * np.arange(L + 1) + 1) * np.ones(L + 1, dtype=complex)
    sums, _ = _damped_sums(xs, coefficients, _damping_weights([epsilon], L + 1))
    return sums[:, 0].real.copy()


def unregularized_partial_sums(theta: float, p: PhysicalParams, L: int) -> np.ndarray:
    """Raw partial sums of the series amplitude, for divergence diagnostics.

    Returns the sequence sum_{l=0}^{n} (2l+1) S_l P_l(cos theta) / (2ik)
    for n = 0 .. L.  No convergence is promised; for beta != 0 the
    sequence keeps oscillating with non-decaying amplitude, which is the
    pathology the smoothing in this module exists to cure.
    """
    theta = check_theta(theta)
    L = check_order(L, "L")
    x = math.cos(theta)
    P = _legendre_table([x], L)[0]
    S = s_matrix_sequence(L, p)
    l = np.arange(L + 1)
    terms = (2 * l + 1) * S * P / (2j * p.k)
    return np.cumsum(terms)
