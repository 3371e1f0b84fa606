"""Reference values computed apart from coulomb-kit.

Nothing here imports the program.  The closed amplitude, the Rutherford
cross section, the S-matrix elements and the Legendre polynomials come
from mpmath at 30 significant digits; the damped completeness kernel is a
finite Legendre series evaluated by Clenshaw's recurrence
(``numpy.polynomial.legendre.legval``), not by the program's upward
three-term recurrence.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from numpy.polynomial import legendre as npleg

DPS = 30


def to_complex(z) -> complex:
    return complex(mp.re(z), mp.im(z))


class Reference:
    """High-precision closed forms, cached per Coulomb strength beta."""

    def __init__(self):
        self._prefactor = {}

    def _pref(self, beta: float):
        """Gamma(1 - i beta) / (i Gamma(i beta)) at DPS digits."""
        if beta not in self._prefactor:
            with mp.workdps(DPS):
                b = mp.mpf(beta)
                self._prefactor[beta] = mp.exp(
                    mp.loggamma(1 - 1j * b) - mp.loggamma(1j * b)) / 1j
        return self._prefactor[beta]

    def amplitude(self, theta: float, k: float, beta: float) -> complex:
        """Closed f(theta); the float theta is taken as exact."""
        with mp.workdps(DPS):
            s2 = mp.sin(mp.mpf(theta) / 2) ** 2
            f = self._pref(beta) * mp.exp(1j * mp.mpf(beta) * mp.log(s2)) / (
                2 * mp.mpf(k) * s2)
            # the reference must obey the modulus law it is used to check
            if abs(abs(f) ** 2 / self._rutherford(theta, k, beta) - 1) > mp.mpf(10) ** (5 - DPS):
                raise ArithmeticError("reference amplitude misses |f|^2 = Rutherford")
            return to_complex(f)

    @staticmethod
    def _rutherford(theta: float, k: float, beta: float):
        s = mp.sin(mp.mpf(theta) / 2)
        return mp.mpf(beta) ** 2 / (4 * mp.mpf(k) ** 2 * s ** 4)

    def rutherford(self, theta: float, k: float, beta: float) -> float:
        """beta^2 / (4 k^2 sin^4(theta/2))."""
        with mp.workdps(DPS):
            return float(self._rutherford(theta, k, beta))

    @staticmethod
    def s_matrix(L: int, beta: float) -> list:
        """S_l = Gamma(l+1-i beta) / Gamma(l+1+i beta) for l = 0..L, as mpc."""
        with mp.workdps(DPS):
            b = mp.mpf(beta)
            return [mp.exp(mp.loggamma(l + 1 - 1j * b) - mp.loggamma(l + 1 + 1j * b))
                    for l in range(L + 1)]

    def partial_sums(self, theta: float, k: float, beta: float, L: int) -> np.ndarray:
        """sum_{l<=n} (2l+1) S_l P_l(cos theta) / (2ik) for n = 0..L."""
        S = self.s_matrix(L, beta)
        with mp.workdps(DPS):
            x = mp.cos(mp.mpf(theta))
            scale = 2j * mp.mpf(k)
            acc = mp.mpc(0)
            out = np.empty(L + 1, dtype=complex)
            for l in range(L + 1):
                acc += (2 * l + 1) * S[l] * mp.legendre(l, x) / scale
                out[l] = to_complex(acc)
        return out


def kernel_finite_sum(x, epsilon: float, L: int) -> np.ndarray:
    """sum_{l=0}^{L} (2l+1) exp(-eps l) P_l(x) by Clenshaw's recurrence."""
    l = np.arange(L + 1)
    return npleg.legval(np.asarray(x, dtype=float), (2 * l + 1) * np.exp(-epsilon * l))


def kernel_closed(x, epsilon: float) -> np.ndarray:
    """L -> infinity limit (1 - t^2) / (1 - 2 x t + t^2)^(3/2), t = exp(-eps)."""
    t = math.exp(-epsilon)
    x = np.asarray(x, dtype=float)
    return (1.0 - t * t) / (1.0 - 2.0 * x * t + t * t) ** 1.5


def kernel_tail_bound(epsilon: float, L: int) -> float:
    """sum_{l>L} (2l+1) t^l, which bounds the truncated tail since |P_l| <= 1."""
    t = math.exp(-epsilon)
    return t ** (L + 1) * ((2 * L + 3) - (2 * L + 1) * t) / (1.0 - t) ** 2


def rel_error(value, ref) -> float:
    """|value - ref| / |ref| for scalars, max-norm relative error for arrays."""
    value = np.asarray(value)
    ref = np.asarray(ref)
    scale = float(np.max(np.abs(ref)))
    err = float(np.max(np.abs(value - ref)))
    return err / scale if scale > 0.0 else err


def digits(err: float) -> float:
    """-log10 of a relative error, capped at 16."""
    return 16.0 if err <= 1e-16 else min(16.0, -math.log10(err))
