"""Complex log-gamma machinery and Legendre polynomial recurrences.

Everything downstream (S-matrix elements, phase shifts, amplitudes,
regularized sums) is built from exactly two primitives:

* the principal branch of ln Gamma(z) for complex z, and
* the Legendre polynomials P_l(x) on [-1, 1] evaluated by the upward
  three-term recurrence

      (l+1) P_{l+1}(x) = (2l+1) x P_l(x) - l P_{l-1}(x),   P_0 = 1, P_1 = x,

  which is stable on the whole interval.

Gamma ratios are always formed in log space, exp(lnG(a) - lnG(b)).  That
keeps conjugate-argument ratios exactly unimodular and makes the ratio
Gamma(1-ib)/Gamma(ib) well behaved as b -> 0, where the individual factor
1/Gamma(ib) vanishes linearly.

All operations are pure and stateless; they are safe to call concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma as _scipy_loggamma

from .errors import DomainError, GammaPoleError, check_abscissa, check_order

# Declared argument range: beyond this, ln Gamma itself can no longer be
# represented in double precision.
MAX_GAMMA_ARGUMENT_MODULUS = 1e300

# exp() overflows double precision just above this.
_MAX_LOG = 709.0


def log_gamma(z: complex) -> complex:
    """Principal branch of ln Gamma(z) for a complex argument.

    Accurate to better than 1e-13 relative error (with an absolute floor
    of the same size near the zeros at z = 1, 2) on the strip
    Re z in [-50, 50], |Im z| <= 100; in practice the implementation is
    good far beyond that.

    Conjugate symmetry ln Gamma(conj z) = conj(ln Gamma(z)) holds exactly
    for off-axis arguments: the lower half plane is evaluated by
    reflecting through the real axis.

    Parameters
    ----------
    z : complex
        Argument. Must be finite, not a non-positive integer, and with
        |z| <= MAX_GAMMA_ARGUMENT_MODULUS.

    Returns
    -------
    complex
        ln Gamma(z), principal branch (branch cut on the negative real
        axis; real-axis values below the cut follow the Im -> -pi side).

    Raises
    ------
    GammaPoleError
        If z is a non-positive integer.
    DomainError
        If z is not finite.
    OverflowError
        If |z| exceeds the declared range.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"log_gamma argument must be finite, got {z!r}")
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise GammaPoleError(f"gamma function has a pole at {z.real:g}")
    if abs(z) > MAX_GAMMA_ARGUMENT_MODULUS:
        raise OverflowError(
            f"|z| = {abs(z):.3e} exceeds the supported range "
            f"{MAX_GAMMA_ARGUMENT_MODULUS:.1e} for log_gamma"
        )
    if z.imag < 0.0:
        # mirror into the upper half plane: enforces exact conjugate symmetry
        value = complex(_scipy_loggamma(z.conjugate())).conjugate()
    else:
        value = complex(_scipy_loggamma(z))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise OverflowError(f"log_gamma({z!r}) is not representable")
    return value


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


@dataclass(frozen=True)
class LegendreSequence:
    """Legendre polynomial values P_0(x) .. P_L(x) at a single abscissa.

    Attributes
    ----------
    x : float
        Abscissa in [-1, 1].
    values : np.ndarray
        values[l] = P_l(x), length L + 1.  values[0] is exactly 1 and
        values[1] (when present) exactly x.
    """

    x: float
    values: np.ndarray


def _legendre_values(x: float, L: int) -> np.ndarray:
    """Upward recurrence for P_0(x) .. P_L(x); assumes validated input."""
    out = np.empty(L + 1)
    out[0] = 1.0
    if L == 0:
        return out
    out[1] = x
    p_prev = 1.0
    p_cur = x
    for l in range(1, L):
        p_next = ((2 * l + 1) * x * p_cur - l * p_prev) / (l + 1)
        out[l + 1] = p_next
        p_prev, p_cur = p_cur, p_next
    return out


# Below this many abscissae one scalar loop per abscissa is faster than a
# few numpy operations per degree across all of them: measured on a 2-core x86
# machine the two break even near 12 abscissae, at L = 500 and L = 5888.
_TABLE_VECTOR_MIN = 12


def _legendre_table(xs, L: int) -> np.ndarray:
    """P_0 .. P_L at many abscissae; assumes validated input.

    Returns a C-contiguous array of shape (len(xs), L + 1) whose row i
    equals ``_legendre_values(xs[i], L)`` bit for bit: the vector sweep
    runs the same recurrence with the operations in the same order, each
    step over l a few numpy operations across all abscissae.

    scipy.special.legendre_p_all is about 50x faster but is not exact at
    the end points: it gives P_5888(+-1) = +-1 +- 1.9e-11, where this
    recurrence gives exactly (+-1)^l, and at x = -1 that drift would leak
    into every theta = pi result.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size < _TABLE_VECTOR_MIN:
        out = np.empty((xs.size, L + 1))
        for i, x in enumerate(xs):
            out[i] = _legendre_values(float(x), L)
        return out
    deg = np.arange(L + 1, dtype=float)
    odd_x = np.multiply.outer(2.0 * deg + 1.0, xs)       # row l: (2l+1) x
    cols = np.empty((L + 1, xs.size))
    cols[0] = 1.0
    if L >= 1:
        cols[1] = xs
    tmp = np.empty(xs.size)
    rows = list(cols)
    for prev, cur, nxt, ox, l, up in zip(rows, rows[1:], rows[2:], odd_x[1:], deg[1:], deg[2:]):
        np.multiply(ox, cur, out=nxt)
        np.multiply(prev, l, out=tmp)
        np.subtract(nxt, tmp, out=nxt)
        np.divide(nxt, up, out=nxt)
    return np.ascontiguousarray(cols.T)


def legendre_sequence(x: float, L: int) -> LegendreSequence:
    """Evaluate P_0(x) .. P_L(x) by the upward three-term recurrence.

    Parameters
    ----------
    x : float
        Abscissa, -1 <= x <= 1.
    L : int
        Highest degree, >= 0.

    Raises
    ------
    DomainError
        If |x| > 1 or L is negative.
    """
    x = check_abscissa(x)
    L = check_order(L, "sequence length L")
    return LegendreSequence(x=x, values=_legendre_values(x, L))


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
    l = check_order(l, "degree l")
    P = _legendre_values(x, l + 1)
    dP = np.empty(l + 2)
    dP[0] = 0.0
    for j in range(0, l + 1):
        dP[j + 1] = x * dP[j] + (j + 1) * P[j]
    d_lower = dP[l - 1] if l >= 1 else 0.0
    return abs((2 * l + 1) * P[l] - (dP[l + 1] - d_lower))
