"""Complex log-gamma machinery and Legendre polynomial recurrences.

Everything downstream (S-matrix elements, phase shifts, amplitudes,
regularized sums) is built from exactly two primitives:

* the principal branch of ln Gamma(z) for complex z, on the standard
  library alone, and
* the Legendre polynomials P_l(x) on [-1, 1] evaluated by the upward
  three-term recurrence

      (l+1) P_{l+1}(x) = (2l+1) x P_l(x) - l P_{l-1}(x),   P_0 = 1, P_1 = x,

  which is stable on the whole interval; these import numpy when called.

Gamma ratios are always formed in log space, exp(lnG(a) - lnG(b)).  That
keeps conjugate-argument ratios exactly unimodular and makes the ratio
Gamma(1-ib)/Gamma(ib) well behaved as b -> 0, where the individual factor
1/Gamma(ib) vanishes linearly.

All operations are pure: a repeated argument is worked out again, to the same
bits.  The scalar recurrence reads its exact degree constants below l = 2^14 from a
table (2.3 MiB in full) that grows as sweeps reach further, only by rebinding a longer
list, so a concurrent sweep keeps the list it read.  S_0's phase is kept in coulomb_core.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, GammaPoleError, check_abscissa, check_length

# Declared argument range: within it ln Gamma, at most about 1e303, stays a finite
# double in every quadrant.
MAX_GAMMA_ARGUMENT_MODULUS = 1e300

# exp() overflows double precision just above this.
_MAX_LOG = 709.0

_DEGREES = []  # (l, 2l+1, l+1) as floats for l below its length, at most 2^14

# ln(2 pi) / 2
_HALF_LOG_2PI = 0.9189385332046728

# Stirling coefficients B_2k / (2k (2k-1)), k = 1 .. 8.  Where Stirling is
# used (Re z + Im z >= _STIRLING_MIN, Im z >= 0, so |z| >= 8.5 and
# |arg z| < 3 pi / 4) the first omitted term is below 3e-17.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400)
_STIRLING_MIN = 12.0
# At most this many shifts z -> z + 1 reach Stirling's region: about 0.2 s.
_MAX_SHIFT = 2 ** 20

# ln Gamma(1 + w) = sum_k c_k w^k with c_1 = -(Euler's gamma) and
# c_k = (-1)^k zeta(k) / k; past 23 terms, |c_k w^k| < 1e-18 on |w| <= _TAYLOR_RADIUS.
# Used about z = 1 and z = 2, where ln Gamma vanishes and the shifted
# Stirling sum would leave a few 1e-15 of cancellation error.
_TAYLOR_AT_ONE = (
    -0.5772156649015329, 0.8224670334241132, -0.40068563438653143,
    0.27058080842778454, -0.20738555102867398, 0.1695571769974082,
    -0.1440498967688461, 0.12550966952474304, -0.11133426586956469,
    0.1000994575127818, -0.09095401714582904, 0.083353840546109,
    -0.0769325164113522, 0.07143294629536133, -0.06666870588242046,
    0.06250095514121304, -0.058823978658684585, 0.055555767627403614,
    -0.05263167937961666, 0.05000004769810169, -0.047619070330142226,
    0.04545455629320467, -0.04347826605304026,
)
_TAYLOR_RADIUS = 0.2


def log_gamma(z: complex) -> complex:
    """Principal branch of ln Gamma(z) for a complex argument.

    Accurate to better than 1e-13 relative error (with an absolute floor
    of the same size near the zeros at z = 1, 2) on the strip
    Re z in [-50, 50], |Im z| <= 100; in practice the implementation is
    good far beyond that.

    Conjugate symmetry ln Gamma(conj z) = conj(ln Gamma(z)) holds exactly:
    an argument with a negative imaginary part (-0.0 included) is
    evaluated by reflecting through the real axis.

    Parameters
    ----------
    z : complex
        Argument. Must be finite, not a non-positive integer, and with
        |z| <= MAX_GAMMA_ARGUMENT_MODULUS and Re z + |Im z| >= 12 - 2**20,
        so that at most 2**20 shifts z -> z + 1 reach Stirling's region.

    Returns
    -------
    complex
        ln Gamma(z), principal branch (branch cut on the negative real
        axis; on the cut, Im z = +0.0 gives the limit from above and
        Im z = -0.0 the limit from below).

    Raises
    ------
    GammaPoleError
        If z is a non-positive integer.
    DomainError
        If z is not finite.
    OverflowError
        If z lies outside the declared range.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"log_gamma argument must be finite, got {z!r}")
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise GammaPoleError(f"gamma function has a pole at {z.real:g}")
    big = MAX_GAMMA_ARGUMENT_MODULUS          # the parts first: abs(z) overflows near 1.3e308
    if (abs(z.real) > big or abs(z.imag) > big or abs(z) > big
            or _STIRLING_MIN - z.real - abs(z.imag) > _MAX_SHIFT):
        raise OverflowError(
            f"z = {z!r} exceeds the supported range |z| <= {MAX_GAMMA_ARGUMENT_MODULUS:.1e}, "
            f"Re z + |Im z| >= {_STIRLING_MIN - _MAX_SHIFT:.0f} for log_gamma"
        )
    if math.copysign(1.0, z.imag) < 0.0:
        # mirror into the upper half plane: enforces exact conjugate symmetry
        return _log_gamma_upper(z.conjugate()).conjugate()
    return _log_gamma_upper(z)


def _log_gamma_upper(z: complex) -> complex:
    """ln Gamma(z) for a validated z with Im z >= +0.0.

    Near z = 1 and z = 2 a Taylor series about 1.  Elsewhere Stirling's
    series at z + n, with n the smallest shift that puts z + n in
    Stirling's region, and ln Gamma(z) = ln Gamma(z + n) - sum_{k<n} ln(z + k).
    Each ln(z + k) is a principal log with Im in [0, pi], and the identity
    holds on the whole slit plane, so the sum lands on the principal
    branch with no reflection step.
    """
    w = z - 1.0
    if abs(w) <= _TAYLOR_RADIUS:
        return _log_gamma_near_one(w)
    w -= 1.0
    if abs(w) <= _TAYLOR_RADIUS:
        # ln Gamma(2 + w) = ln(1 + w) + ln Gamma(1 + w), ln(1 + w) without cancellation
        log1p = complex(0.5 * math.log1p(w.real * (2.0 + w.real) + w.imag * w.imag),
                        math.atan2(w.imag, 1.0 + w.real))
        return log1p + _log_gamma_near_one(w)
    n = max(0, math.ceil(_STIRLING_MIN - z.real - z.imag))
    shift = 0.0
    for k in range(n):
        shift += cmath.log(z + k)
    z += n
    # past |z| = 1e150 every term after the first is below 1e-450 |z|, and z * z may overflow
    return _stirling(z, cmath.log(z), 1 if abs(z) > 1e150 else len(_STIRLING)) - shift


def _log_gamma_near_one(w: complex) -> complex:
    """ln Gamma(1 + w) by its Taylor series, for |w| <= _TAYLOR_RADIUS."""
    s = 0.0
    for c in reversed(_TAYLOR_AT_ONE):
        s = (s + c) * w
    return s


def _stirling(z, log_z, n_terms: int = len(_STIRLING)):
    """Stirling's series for ln Gamma(z), given z and its principal log.

    (z - 1/2) ln z - z + ln(2 pi)/2 + sum_{k <= n_terms} _STIRLING[k-1] / z^(2k-1).
    Works elementwise on complex numpy arrays as on complex scalars.
    """
    w = 1.0 / (z * z)
    s = _STIRLING[n_terms - 1]
    for c in reversed(_STIRLING[:n_terms - 1]):
        s = s * w + c
    # (z - 1/2)(ln z - 1) is (z - 1/2) ln z - z + 1/2 with one rounding less
    # in Im: ln|z| - 1 is exact for |z| >= 2, so at |z| = 1e6 the ~1e7 of Im
    # comes from one product and one sum
    return (z - 0.5) * (log_z - 1.0) + (_HALF_LOG_2PI - 0.5) + s / z


def gamma_ratio(a: complex, b: complex) -> complex:
    """Gamma(a) / Gamma(b), formed as exp(log_gamma(a) - log_gamma(b)).

    Working in log space avoids overflow of the individual Gamma values
    and cancels the real parts exactly for conjugate arguments, so
    |gamma_ratio(z, conj z)| = 1 to machine precision.

    Raises
    ------
    GammaPoleError
        If either argument sits on a pole.
    OverflowError
        If the ratio itself overflows double precision.
    """
    diff = log_gamma(complex(a)) - log_gamma(complex(b))
    if diff.real > _MAX_LOG:
        raise OverflowError(
            f"gamma_ratio({a!r}, {b!r}) overflows: ln|ratio| = {diff.real:.1f}"
        )
    return cmath.exp(diff)


def _legendre_values(x: float, L: int, head=(1.0,)) -> np.ndarray:
    """Upward recurrence for P_0(x) .. P_L(x) at one abscissa; assumes validated input.

    It resumes after ``head`` = P_0 .. P_m (m <= L), so a fresh sweep starts from
    (P_{-1}, P_0) = (0, 1) and its first step gives P_1 = x.  A step reads (l, 2l+1, l+1)
    from _DEGREES below 2^14 and float counters past it, all exact, so it rounds as
    ((2l+1) x P_l - l P_{l-1}) / (l+1) does in integers.  The new P_l reach numpy as one
    struct-packed copy.  Pass x as a Python float: a numpy scalar halves the speed.
    """
    global _DEGREES
    import struct
    import numpy as np
    out = np.empty(L + 1)
    if abs(x) == 1.0:                                    # the recurrence's own (+-1)^l, no sweep
        out[:], out[1::2] = 1.0, x
        return out
    m = len(head) - 1
    out[: m + 1] = head
    p_prev, p_cur = float(head[m - 1]) if m else 0.0, float(head[m])
    values, table, n = [], _DEGREES, min(L, 1 << 14)
    if len(table) < n:                                   # a new list: a sweep keeps the one it read
        table = _DEGREES = table + [(float(l), 2.0 * l + 1, l + 1.0) for l in range(len(table), n)]
    for b, s, c in table[m:n]:
        p_prev, p_cur = p_cur, (s * x * p_cur - b * p_prev) / c
        values.append(p_cur)
    b = float(max(m, n))
    for _ in range(max(m, n), L):
        c = b + 1.0
        p_prev, p_cur = p_cur, ((b + c) * x * p_cur - b * p_prev) / c
        values.append(p_cur)
        b = c
    out[m + 1 :] = np.frombuffer(struct.pack(f"{len(values)}d", *values))
    return out


def _legendre_table(xs, L: int) -> np.ndarray:
    """P_0 .. P_L at many abscissae, fresh; assumes validated input.

    Returns a Fortran-ordered view of shape (len(xs), L + 1) whose row i
    equals ``_legendre_values(xs[i], L)`` bit for bit: row l starts as (2l-1) x and
    takes the loop's own step in place, 4 ufunc calls across all abscissae at once.

    scipy.special.legendre_p_all is about 50x faster but is not exact at
    the end points: it gives P_5888(+-1) = +-1 +- 1.9e-11, where this
    recurrence gives exactly (+-1)^l, and at x = -1 that drift would leak
    into every theta = pi result.
    """
    import numpy as np
    xs = np.asarray(xs, dtype=float)
    out = np.empty((L + 1, xs.size))                     # out[l] = P_l
    out[0] = 1.0
    np.multiply.outer(np.arange(1.0, 2 * L, 2.0), xs, out=out[1:])
    p_prev, p_cur, b, u = 0.0, out[0], 0.0, np.empty(xs.size)  # u: scratch for (l-1) P_{l-2}
    for nxt in out[1:]:
        c = b + 1.0
        nxt *= p_cur
        nxt -= np.multiply(b, p_prev, out=u)
        nxt /= c
        p_prev, p_cur, b = p_cur, nxt, c
    return out.T


def legendre_sequence(x: float, L: int) -> np.ndarray:
    """P_0(x) .. P_L(x) as a float array P of length L + 1, P[l] = P_l(x),
    by the upward three-term recurrence: P[0] is exactly 1, P[1] exactly x.

    Parameters
    ----------
    x : float
        Abscissa, -1 <= x <= 1.
    L : int
        Highest degree, >= 0.

    Raises
    ------
    DomainError
        If |x| > 1 or L is negative or above MAX_L.
    """
    x = check_abscissa(x)
    L = check_length(L, "sequence length L")
    return _legendre_values(x, L)


def legendre_derivative_identity_residual(x: float, l: int) -> float:
    """Residual of the identity (2l+1) P_l(x) = P'_{l+1}(x) - P'_{l-1}(x).

    The derivatives are generated by the independent recurrence

        P'_{j+1}(x) = x P'_j(x) + (j+1) P_j(x),      P'_0 = 0,

    so the returned value is a genuine floating-point residual of the
    identity rather than zero by construction.  P_{-1} == 0 by convention,
    hence P'_{-1} == 0 for l = 0.

    Returns
    -------
    float
        |(2l+1) P_l(x) - P'_{l+1}(x) + P'_{l-1}(x)|.
    """
    x = check_abscissa(x)
    l = check_length(l, "degree l")
    P = _legendre_values(x, l + 1)
    dP = [0.0]
    for j in range(0, l + 1):
        dP.append(x * dP[j] + (j + 1) * P[j])
    d_lower = dP[l - 1] if l >= 1 else 0.0
    return abs((2 * l + 1) * P[l] - (dP[l + 1] - d_lower))
