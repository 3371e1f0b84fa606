"""Regularized numerical evaluation of the Coulomb partial-wave series.

The partial-wave sum

    g(x) = sum_{l=0}^inf (2l+1) S_l P_l(x),        x = cos(theta),

does not converge in the ordinary sense: its terms do not even tend to
zero (the free sum of the same shape is a delta distribution supported at
x = 1, and the Coulomb phases only rotate each term).  This module sums
it two ways.

By default (:func:`series_amplitude` with no config) it sums the
Yennie-Ravenhall-Wilson reduced series (Phys. Rev. 95, 500, 1954):
multiplying by (1-x)^m turns the coefficients (2l+1) S_l, in closed form,
into ones that decay like l^{1-2m}, so (1-x)^m g(x) = sum_l a_l P_l(x)
converges with no damping and no extrapolation, truncated where its own
tail estimate meets 1e-10 relative (:func:`_reduced_sum`).  It sums at
m = 4, and at m = 3 where order 4's rounding floor is too high.

With a :class:`SummationConfig` it is summed in the Abel sense:

1.  damp the terms with exp(-eps l) for a decreasing schedule of
    smoothing parameters eps,
2.  truncate at l_max, chosen so the damping at the truncation point is
    already tiny,
3.  extrapolate the damped values to eps -> 0 with Neville's scheme
    through the smallest few eps points.

Each :class:`ConvergenceReport` shows the approach to the limit eps by
eps.  The closed forms of :mod:`coulomb_kit.coulomb_core` are never
evaluated here: they check the series, they do not feed it.  The
measured accuracy of both routes is in the README.

Partial waves come from S_0 by the exact ladder
S_{l+1} = S_l (l+1 - i beta) / (l+1 + i beta), one Gamma evaluation in
total, checked every 64 steps against the Gamma ratio.  P_l comes from the
upward Legendre recurrence: ``_legendre_values`` (resumable) or ``_legendre_table``.
The Abel sums and the completeness kernel sweep many abscissae at once, in
blocks of 2 MiB of P, sharing one S_l sequence and one set of damping
weights.  The reduced series is summed one angle at a time: the first
angle at a beta to use an order builds that order's coefficients once for
L up to 512, only a longer L builds again, every L slices the
longest build, and each doubling of L resumes the angle's sweep.  Every
abscissa's terms are summed over the contiguous l axis in the same order,
so a grid gives the same bits as one call per angle.

All results are pure.  The reduced coefficients of the last beta (the
longest built of each order), the last Legendre block within 2 MiB and
the beta-free lattice of the longest n <= 2^14 asked for (under 1 MiB)
are memoized as read-only arrays: cold or warm, identical inputs give
bit-identical results, and concurrent calls are safe.
"""

from __future__ import annotations

import math

import numpy as np

from .coulomb_core import (
    REGULARIZED_SERIES,
    AmplitudeResult,
    PhysicalParams,
    s_matrix,
)
from .errors import (
    MAX_L, ConfigError, DomainError, Record, check_cosine, check_integer, check_length,
    check_size, check_theta,
)
# kept private: perfbench's tracer wraps public names, so its time would count twice
from .special_functions import _legendre_table, _legendre_values, _stirling

# ln(1e8): damping at the truncation point for the smallest eps
_TAIL_LOG_TARGET = 18.4

# the one built-in schedule; another is a SummationConfig built directly
_DEFAULT_EPSILONS = tuple(0.1 / 2.0**j for j in range(6))

# ladder cross-validation cadence and tolerance
_LADDER_CHECK_STRIDE = 64
_LADDER_DRIFT_TOL = 1e-10

# reduced series: first truncation (doubled up to MAX_L = 256 * 2^10), tolerance
_YRW_FIRST_L = 256
_YRW_TOL = 1e-10
# rounding floor of an order-m reduced sum: (2m + 2) u sum_l |a_l P_l| / (1-x)^m, a
# first-order count of one unit roundoff u per rounded factor: m + 1 in a_l, which is
# S_l times 2 beta (2l+1) and m quotients (the constant folded into them), m in the
# division by (1-x)^m (m - 1 products and the divide) and one in the division by 2ik.
# The errors of S_l, of P_l and of the sum itself are not counted.
_YRW_FLOOR = np.finfo(float).eps / 2
# largest relative error estimate a reduced sum may return
_YRW_CEILING = 1e-6

# Abscissae per Legendre block: at least _BLOCK_MIN, so that the vector
# sweep pays for itself, and otherwise about _BLOCK_ENTRIES float64 entries
# of P (2 MiB).  Its complex terms and their damped copy are formed in row
# chunks of at most _BLOCK_ENTRIES / 16 entries (256 KiB each, in L2 cache).
_BLOCK_MIN = 32
_BLOCK_ENTRIES = 1 << 18
_table_memo = (None, None)  # the last block's (L, abscissa bytes) and its read-only P


class SummationConfig(Record):
    """Truncation order, Abel smoothing schedule and extrapolation settings.

    Attributes
    ----------
    l_max : int
        Truncation order of the partial-wave sum, in [1, MAX_L].
    epsilons : tuple of float
        Strictly decreasing positive smoothing parameters.
    extrapolation_order : int
        0 takes the smallest-eps value as the result; n >= 1 runs
        polynomial extrapolation to eps = 0 through the smallest n+1
        points.  Must be < len(epsilons).
    """

    __slots__ = __match_args__ = ("l_max", "epsilons", "extrapolation_order")

    def __init__(self, l_max: int, epsilons: tuple, extrapolation_order: int = 4):
        for name, value in (("l_max", l_max), ("extrapolation_order", extrapolation_order)):
            object.__setattr__(self, name, check_integer(value, name, ConfigError))
        object.__setattr__(self, "epsilons", tuple(float(e) for e in epsilons))
        check_size(self.l_max, "l_max")
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


def default_config(l_max: int | None = None) -> SummationConfig:
    """The built-in eps schedule, with l_max as the only setting.

    The schedule is eps = 0.1, 0.05, ..., 0.1/2^5 with fourth-order
    extrapolation.  When l_max is not given it is ceil(18.4 / eps_min)
    = 5888, which makes the damping factor at the truncation point about
    1e-8 for the smallest eps.  Another schedule is a
    :class:`SummationConfig` built directly.
    """
    if l_max is None:
        l_max = math.ceil(_TAIL_LOG_TARGET / _DEFAULT_EPSILONS[-1])
    return SummationConfig(l_max, _DEFAULT_EPSILONS, 4)


class ConvergenceReport(Record):
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
        internal uncertainty estimate, not a bound on the error.
    """

    __slots__ = __match_args__ = ("epsilons", "per_epsilon", "extrapolated", "tail_estimate",
                                  "extrapolation_noise")

    def __init__(self, epsilons, per_epsilon, extrapolated, tail_estimate, extrapolation_noise=0.0):
        object.__setattr__(self, "epsilons", epsilons)
        object.__setattr__(self, "per_epsilon", per_epsilon)
        object.__setattr__(self, "extrapolated", extrapolated)
        object.__setattr__(self, "tail_estimate", tail_estimate)
        object.__setattr__(self, "extrapolation_noise", extrapolation_noise)


_lattice_memo = (-1, None, None)  # the longest n <= 2^14 asked for: 56 bytes per l, < 1 MiB


def _lattices(n: int):
    """Read-only l <= n rows 2l+1, l(l+1) - i(i+1) = (l-i)(l+1+i) (i < 4); 1 .. n as complex."""
    global _lattice_memo
    kept, rows, j = _lattice_memo
    if kept < n:
        l, rows = np.arange(n + 1, dtype=float), np.empty((5, n + 1))
        np.add(l, l + 1, out=rows[0])
        np.subtract(l * (l + 1), [[i * (i + 1.0)] for i in range(4)], out=rows[1:])
        j = l[1:].astype(complex)
        rows.flags.writeable = j.flags.writeable = False
        if n <= 1 << 14:
            _lattice_memo = (n, rows, j)
    return rows[:, : n + 1], j[:n]


def s_matrix_sequence(l_max: int, p: PhysicalParams) -> np.ndarray:
    """S_0 .. S_{l_max} generated by the exact recurrence ladder.

    Starts from the single Gamma evaluation S_0 and applies
    S_{l+1} = S_l (l+1 - i beta)/(l+1 + i beta) as a cumulative product.
    A shorter call gives the first entries of a longer one, bit for bit.
    Every 64 steps the running value is compared with the direct
    Gamma-ratio definition; drift beyond 1e-10 raises ArithmeticError
    (it would indicate a numerical defect, not a user error).
    """
    l_max = check_length(l_max, "l_max")
    if p.beta == 0.0:
        return np.ones(l_max + 1, dtype=complex)
    S0 = s_matrix(0, p).S
    j = _lattices(l_max)[1]
    # named: numpy would multiply S0 into a temporary in place, with other last bits
    ladder = np.empty(l_max + 1, dtype=complex)
    ladder[0] = 1.0
    np.divide(np.subtract(j, 1j * p.beta), np.add(j, 1j * p.beta), out=ladder[1:])
    np.multiply.accumulate(ladder[1:], out=ladder[1:])
    S = S0 * ladder
    # S_l = exp(2i Im lnGamma(l+1 - i beta)) = exp(-2i sign(beta) Im lnGamma(l+1 + i|beta|));
    # at Re z >= 65 three Stirling terms suffice, the fourth is below 2e-16
    z = j[_LADDER_CHECK_STRIDE - 1 :: _LADDER_CHECK_STRIDE] + complex(1.0, abs(p.beta))
    phase = _stirling(z, np.log(z), 3).imag
    direct = np.exp(-2j * math.copysign(1.0, p.beta) * phase)
    drift = np.abs(S[_LADDER_CHECK_STRIDE :: _LADDER_CHECK_STRIDE] - direct)
    bad = (drift > _LADDER_DRIFT_TOL).nonzero()[0]
    if bad.size:
        raise ArithmeticError(
            f"S-matrix ladder drifted {drift[bad[0]]:.3e} from the direct "
            f"Gamma ratio at l={(bad[0] + 1) * _LADDER_CHECK_STRIDE} (beta={p.beta!r})"
        )
    return S


def _damping_weights(epsilons, n_terms: int) -> np.ndarray:
    """Abel factors exp(-eps l), one row per eps over l = 0 .. n_terms-1."""
    eps = np.asarray(epsilons, dtype=float)[:, None]
    l = np.arange(n_terms, dtype=float)
    with np.errstate(over="ignore"):                     # -eps l = -inf: exp gives the weight 0
        return np.exp(-eps * l)


def _damped_sums(xs: np.ndarray, coefficients: np.ndarray, weights: np.ndarray):
    """Damped sums of c_l P_l(x) at every abscissa, for every row of weights.

    Returns (sums, last): sums[i, j] = sum_l c_l P_l(xs[i]) weights[j, l]
    and last[i] = c_L P_L(xs[i]), the undamped last term.  P_l comes from
    one Legendre sweep per block of abscissae, kept while calls repeat the
    block.  Terms are formed C-ordered a row chunk at a time, each row
    reduced over the contiguous l axis as np.sum reduces one abscissa's
    damped terms, so the results agree bit for bit.  A matrix product
    would not: BLAS accumulates in another order.
    """
    global _table_memo
    L = len(coefficients) - 1
    sums = np.empty((xs.size, len(weights)), dtype=complex)
    last = np.empty(xs.size, dtype=complex)
    chunk = max(1, _BLOCK_ENTRIES // (16 * (L + 1)))
    step = max(_BLOCK_MIN, _BLOCK_ENTRIES // (L + 1))
    for start in range(0, xs.size, step):
        block = slice(start, start + step)
        key, (memo_key, P) = (L, xs[block].tobytes()), _table_memo
        if memo_key != key:
            _table_memo, P = (None, None), None          # release the old table first
            P = _legendre_table(xs[block], L)
            if P.size <= _BLOCK_ENTRIES:                 # never keep a MAX_L-sized one
                P.flags.writeable = False
                _table_memo = (key, P)
        for i in range(0, len(P), chunk):
            terms = np.multiply(coefficients, P[i : i + chunk], order="C")
            for j, w in enumerate(weights):
                sums[block][i : i + chunk, j] = np.sum(terms * w, axis=-1)
            last[block][i : i + chunk] = terms[:, -1]
    return sums, last


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
    last_term: complex, per_eps, cfg: SummationConfig
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
    )


def smoothed_partial_wave_sum(
    x: float,
    p: PhysicalParams,
    cfg: SummationConfig,
) -> ConvergenceReport:
    """Abel-regularized evaluation of sum_l (2l+1) S_l P_l(x).

    For each eps in the schedule the damped, truncated sum

        sum_{l=0}^{l_max} (2l+1) S_l P_l(x) exp(-eps l)

    is formed, then extrapolated to eps = 0.

    Raises
    ------
    DomainError
        If x is outside [-1, 1) (the sum is a delta-type singularity at
        x = 1 and is not evaluated there).
    """
    x = check_cosine(x)
    return _partial_wave_reports([x], p, cfg)[0]


def _partial_wave_reports(xs, p: PhysicalParams, cfg: SummationConfig) -> list:
    """One report per validated abscissa: one S_l sequence, one sweep per block."""
    coefficients = (2 * np.arange(cfg.l_max + 1) + 1) * s_matrix_sequence(cfg.l_max, p)
    weights = _damping_weights(cfg.epsilons, cfg.l_max + 1)
    sums, last = _damped_sums(np.asarray(xs, dtype=float), coefficients, weights)
    return [_series_report(t, s, cfg) for t, s in zip(last, sums)]


def smoothed_auxiliary_sum(
    x: float,
    p: PhysicalParams,
    cfg: SummationConfig,
) -> ConvergenceReport:
    """Abel-regularized evaluation of sum_l S_l [P_{l+1}(x) - P_{l-1}(x)].

    Same scheme as :func:`smoothed_partial_wave_sum` applied to the
    auxiliary series (P_{-1} == 0).  At x = -1 only the l = 0 term
    survives, so every damped sum equals -S_0 exactly.
    """
    x = check_cosine(x)
    P = _legendre_values(x, cfg.l_max + 1)
    S = s_matrix_sequence(cfg.l_max, p)
    upper = P[1:]                                        # P_{l+1}
    lower = np.concatenate(([0.0], P[: cfg.l_max]))      # P_{l-1}, P_{-1} = 0
    terms = S * (upper - lower)
    per_eps = np.sum(terms * _damping_weights(cfg.epsilons, len(terms)), axis=-1)
    return _series_report(terms[-1], per_eps, cfg)


# the last beta (a_l has no k) and, for each order m asked for at it, its longest a
_reduced_memo = (None, {})


def _reduced_coefficients(L: int, beta: float, m: int) -> np.ndarray:
    """a_0 .. a_L with (1-x)^m g(x) = sum_l a_l P_l(x); assumes beta != 0.

    By x P_l = [(l+1) P_{l+1} + l P_{l-1}] / (2l+1), (1-x) sum_l c_l P_l has
    coefficients c_l - l/(2l-1) c_{l-1} - (l+1)/(2l+3) c_{l+1} (c_{-1} has
    weight 0).  n of them take (2l+1) S_l to (2l+1) S_l K_n / D_n(l), with
    D_n(l) = prod_{j<n} (l - j - i beta)(l + 1 + j + i beta).  Let
    u = l - n - i beta and v = l + 1 + n + i beta: u + v = 2l+1 and
    D_{n+1} = D_n u v.  By the ladder, S_{l-1}/S_l = (l + i beta)/(l - i beta)
    and S_{l+1}/S_l = (l+1 - i beta)/(l+1 + i beta), so reduction n + 1 gives
    (2l+1) S_l K_n / D_{n+1}(l) times u v - [l v (v-1) + (l+1) u (u+1)] / (u + v)
    = -(v - u - 1)^2 / 2 = 2 (beta - i n)^2.  Each step multiplies by
    2 (beta - i n)^2 / (u v), u v = (l-n)(l+1+n) + beta^2 - i (2n+1) beta, so

        a_l = 2^m beta^2 (2l+1) S_l prod_{j=1}^{m-1} (beta - i j)^2
              / prod_{j=0}^{m-1} (l - j - i beta)(l + 1 + j + i beta),

    a product with no subtraction: no digits cancel, and S runs only to L.
    """
    global _reduced_memo
    beta = float(beta)
    memo_beta, built = _reduced_memo
    if memo_beta != beta:
        built = {}
    a = built.get(m, ())
    if len(a) <= L:
        # an order's first build takes rungs 256 and 512 at once: one costs about what 256 does
        n = max(L, 2 * _YRW_FIRST_L)
        # in place at any L: numpy elides temporaries from 256 KiB, and the two round apart
        a = s_matrix_sequence(n, PhysicalParams(k=1.0, beta=beta))
        rows = _lattices(n)[0]
        # one beta per end: beta^2 is subnormal below |beta| ~ 1.5e-154, a_0 .. a_{m-1} are O(beta)
        a *= 2 * beta * rows[0]
        d = np.empty(n + 1, dtype=complex)
        for j in range(m):
            a /= np.add(rows[1 + j], complex(beta**2, -(2 * j + 1) * beta), out=d)
        a *= math.prod([2 ** (m - 1) * beta] + [(beta - 1j * j) ** 2 for j in range(1, m)])
        a.flags.writeable = False
        _reduced_memo = (beta, {**built, m: a})
    return a[: L + 1]


def _reduced_sum(theta: float, x: float, p: PhysicalParams):
    """g(x) by the Yennie-Ravenhall-Wilson reduced series, and its error estimate.

    g_L(x) = sum_{l<=L} a_l P_l(x) / (1-x)^m converges with no damping,
    a_l from :func:`_reduced_coefficients`.  L starts at 256 and doubles, up
    to MAX_L, and each rung resumes the Legendre sweep after the rows
    the last one made.  The order m starts at 4, whose a_l decay faster,
    and drops to 3 for good at the first rung where its rounding floor
    (2m + 2) u sum_l |a_l P_l| / (1-x)^m exceeds 1e-10 |g_L|: the floor
    grows like theta^{-2(m-1)}, so order 4 cannot meet the tolerance there.
    The drop sums the same rung's P_l again.  The angle is done at the first
    L where the tail estimate max_{L/2 <= n < L} |g_L - g_n| is at most
    max(1e-10 |g_L|, floor); its estimate is the larger of the two.
    A floor above 1e-6 |g_L| on two rungs running (it only grows with L)
    stops the ladder.  Returns (g, estimate).

    Raises
    ------
    ArithmeticError
        If 1/beta overflows (0 < |beta| <= 1/DBL_MAX: every a_l would be
        NaN), if the angle is still open at L = MAX_L, or if its estimate
        exceeds 1e-6 |g|, as the rounding floor does near theta = 0.
    """
    if math.isinf(1.0 / p.beta):
        raise ArithmeticError(f"1/beta overflows at beta={p.beta!r} in the reduced series")
    d = 1.0 - x
    P, L, m, strikes = (1.0,), _YRW_FIRST_L, 4, 0
    while True:
        if len(P) <= L:
            P = _legendre_values(x, L, P)
        scale = math.prod((d,) * m)                      # left to right: d * d * d at m = 3
        terms = _reduced_coefficients(L, p.beta, m) * P
        value = terms.sum() / scale
        floor = (2 * m + 2) * _YRW_FLOOR * np.abs(terms).sum() / scale
        if m == 4 and floor > _YRW_TOL * abs(value):
            m = 3
            continue
        # g_L - g_n for n = L-1 down to L/2: sums of the last terms
        tail = np.abs(terms[: L // 2 : -1].cumsum()).max() / scale
        strikes = strikes + 1 if floor > _YRW_CEILING * abs(value) else 0
        if tail <= max(_YRW_TOL * abs(value), floor) or strikes == 2:
            break
        if L == MAX_L:
            raise ArithmeticError(
                f"reduced series did not reach its tolerance {_YRW_TOL:g} by "
                f"L={L} (beta={p.beta!r}, theta={theta!r})"
            )
        L *= 2
    estimate = max(tail, floor)
    if estimate > _YRW_CEILING * abs(value):
        raise ArithmeticError(
            f"reduced series error estimate {estimate / abs(value):.3g} relative exceeds "
            f"{_YRW_CEILING:g} (beta={p.beta!r}, theta={theta!r})"
        )
    return value, estimate


def series_amplitude(
    theta: float,
    p: PhysicalParams,
    cfg: SummationConfig | None = None,
) -> AmplitudeResult:
    """Scattering amplitude from the regularized partial-wave series.

    f(theta) = g(cos theta) / (2ik).  By default g is the reduced series
    of :func:`_reduced_sum`, truncated where its tail estimate meets
    1e-10 relative (or its rounding floor); ``error_estimate`` is the
    larger of the two over 2k.  An angle still open at L = MAX_L, or
    whose estimate exceeds 1e-6 |f| (near theta = 0), raises
    ArithmeticError; beta = 0 gives f = 0 exactly.

    With a :class:`SummationConfig` g is the Abel sum of
    :func:`smoothed_partial_wave_sum`, and ``error_estimate`` is its
    extrapolation noise over 2k, not a bound.  The README gives the
    measured accuracy and reach of both.

    The true error is the distance to
    :func:`~coulomb_kit.coulomb_core.closed_amplitude`.  theta = 0 is
    rejected.
    """
    return series_amplitudes([theta], p, cfg)[0]


def series_amplitudes(
    thetas,
    p: PhysicalParams,
    cfg: SummationConfig | None = None,
) -> list:
    """:func:`series_amplitude` over a grid of angles, in grid order.

    With a config the S_l sequence and the damping weights are computed
    once for the grid and the Legendre sweep runs once per block of
    angles.  The reduced series is summed one angle at a time, every L
    slicing one build per beta and order, shared with later calls.
    Either way element i equals ``series_amplitude(thetas[i], p, cfg)``
    bit for bit.
    """
    thetas = [check_theta(t) for t in thetas]
    xs = [check_cosine(math.cos(t)) for t in thetas]
    if cfg is not None:
        sums = [(r.extrapolated, r.extrapolation_noise) for r in _partial_wave_reports(xs, p, cfg)]
    elif p.beta == 0.0:
        # every reduced coefficient vanishes: the free series sums to 0 off x = 1
        sums = [(0.0, 0.0)] * len(thetas)
    else:
        sums = [_reduced_sum(t, x, p) for t, x in zip(thetas, xs)]
    return [
        AmplitudeResult(theta=theta, f=complex(value) / (2j * p.k), method=REGULARIZED_SERIES,
                        error_estimate=float(estimate) / (2.0 * p.k))
        for theta, (value, estimate) in zip(thetas, sums)
    ]


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
    L = check_length(L, "L")
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    if xs.ndim != 1:
        raise DomainError(f"kernel abscissae must form a 1-D grid, got shape {xs.shape}")
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
    pathology the smoothing in this module exists to cure.  Sums that
    overflow, as at k = 1e-320, raise OverflowError.
    """
    theta = check_theta(theta)
    L = check_length(L, "L")
    x = math.cos(theta)
    P = _legendre_values(x, L)
    S = s_matrix_sequence(L, p)
    l = np.arange(L + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.cumsum((2 * l + 1) * S * P / (2j * p.k))
    # a partial sum that is not finite leaves every later one, the last included, not finite
    if not np.isfinite(sums[-1]):
        raise OverflowError(f"raw partial sums are not finite (theta={theta!r}, k={p.k!r})")
    return sums
