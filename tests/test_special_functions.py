"""Tests for the complex log-gamma wrapper and Legendre recurrences."""

import cmath
import math

import numpy as np
import pytest

from coulomb_kit.errors import DomainError, GammaPoleError
from coulomb_kit.special_functions import (
    _TABLE_VECTOR_MIN,
    _legendre_table,
    _legendre_values,
    gamma_ratio,
    legendre_derivative_identity_residual,
    legendre_sequence,
    log_gamma,
)

# ln Gamma(z) reference values from a 50-digit evaluation (mpmath, dps=50),
# frozen before the implementation was written.  Keys are (Re z, Im z).
LOG_GAMMA_ORACLE = {
    (0.5, 0.0): complex(0.572364942924700087, 0.0),
    (1.0, 1.0): complex(-0.650923199301856339, -0.301640320467533198),
    (-0.5, 0.5): complex(0.458960833089595767, -3.10692369231439567),
    (3.25, -2.0): complex(0.267098277129367779, -2.18410542486351347),
    (10.0, 10.0): complex(8.23613175044871784, 23.9487034137820374),
    (-10.5, 3.0): complex(-23.4749982660721282, -27.3264846057264539),
    (25.0, -60.0): complex(7.63160732595621647, -219.2741803318046),
    (-49.5, 99.0): complex(-386.325929102506789, 265.239600762552842),
    (50.0, 100.0): complex(73.6831271905217588, 426.477391028304913),
    (0.1, -0.1): complex(1.89899127367590016, 0.827464707773075746),
    (-3.7, -80.0): complex(-143.151179988424089, -263.855106198112445),
    (12.5, 0.0): complex(18.7343475119364457, 0.0),
    (-0.25, 0.0): complex(1.58957531255118599, -3.14159265358979324),
    (42.0, -7.0): complex(113.446646134743254, -26.1129321171303963),
    (-31.2, 55.5): complex(-215.156286947251293, 108.999880427874762),
    (5.0, -100.0): complex(-135.435929193524481, -367.484802040634997),
    (-50.0, -1.0): complex(-149.769713330595258, 154.728373993875674),
    (2.0, 0.0): complex(0.0, 0.0),
    (7.5, 33.0): complex(-26.3902428217819206, 92.6445776416259357),
    (-20.3, -0.7): complex(-43.597282467810013, 63.2321130197158619),
}

# Gamma(1+i), same oracle
GAMMA_1_PLUS_I = complex(0.49801566811835604271, -0.15494982830181068512)


def test_log_gamma_against_frozen_oracle():
    for (re, im), ref in LOG_GAMMA_ORACLE.items():
        value = log_gamma(complex(re, im))
        assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref)), (re, im)


def test_log_gamma_at_one_is_zero():
    assert abs(log_gamma(1.0 + 0.0j)) <= 1e-15


def test_log_gamma_at_half_is_log_sqrt_pi():
    assert abs(log_gamma(0.5) - 0.57236494292470008707) <= 1e-13


def test_log_gamma_one_plus_i_exponentiates_to_gamma():
    assert abs(cmath.exp(log_gamma(1 + 1j)) - GAMMA_1_PLUS_I) <= 1e-14


@pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -7.0])
def test_log_gamma_pole_raises(z):
    with pytest.raises(GammaPoleError):
        log_gamma(complex(z, 0.0))


def test_log_gamma_near_pole_but_not_on_it_is_fine():
    # non-integer negative reals are regular points
    assert math.isfinite(log_gamma(-2.5 + 0j).real)


def test_log_gamma_rejects_nonfinite():
    with pytest.raises(DomainError):
        log_gamma(complex(float("nan"), 0.0))
    with pytest.raises(DomainError):
        log_gamma(complex(1.0, float("inf")))


def test_log_gamma_overflow_range():
    with pytest.raises(OverflowError):
        log_gamma(1e301)


def test_log_gamma_conjugate_symmetry_is_exact():
    rng = np.random.default_rng(20240517)
    for _ in range(500):
        z = complex(rng.uniform(-50, 50), rng.uniform(0.05, 100))
        assert log_gamma(z.conjugate()) == log_gamma(z).conjugate()


def test_gamma_ratio_identity_is_exactly_one():
    assert gamma_ratio(2 + 3j, 2 + 3j) == 1.0 + 0.0j


def test_gamma_ratio_functional_equation_example():
    z = 0.7 + 0.2j
    assert abs(gamma_ratio(z + 1, z) - z) <= 1e-14


def test_gamma_ratio_conjugate_arguments_unimodular():
    value = gamma_ratio(1 - 1j, 1 + 1j)
    assert abs(value) == pytest.approx(1.0, abs=1e-15)


def test_gamma_ratio_functional_equation_sweep():
    # 1000 samples across the working strip, kept clear of the poles
    rng = np.random.default_rng(7)
    count = 0
    while count < 1000:
        z = complex(rng.uniform(-50, 50), rng.uniform(-100, 100))
        if abs(z.imag) < 0.05 and z.real < 0.6:
            continue  # too close to a pole of Gamma(z) or Gamma(z+1)
        count += 1
        assert abs(gamma_ratio(z + 1, z) - z) <= 1e-12 * abs(z), z


def test_gamma_ratio_survives_arguments_whose_gammas_overflow():
    # Gamma(301.5) and Gamma(301) are ~1e615, far beyond double range,
    # but their ratio is modest; values from the 50-digit oracle
    assert abs(gamma_ratio(301.5, 301.0) - 17.342148191811125026) <= 1e-12 * 17.34
    value = gamma_ratio(200 + 50j, 198 + 50j)
    assert abs(value - (36902 + 19850j)) <= 1e-12 * abs(value)


def test_gamma_ratio_overflow_raises():
    with pytest.raises(OverflowError):
        gamma_ratio(400.0, 1.0)


def test_gamma_ratio_propagates_pole():
    with pytest.raises(GammaPoleError):
        gamma_ratio(-3.0, 1.0)
    with pytest.raises(GammaPoleError):
        gamma_ratio(1.0, 0.0)


def test_legendre_at_one_all_ones():
    seq = legendre_sequence(1.0, 5)
    assert np.array_equal(seq.values, np.ones(6))


def test_legendre_at_minus_one_alternates():
    seq = legendre_sequence(-1.0, 4)
    assert np.array_equal(seq.values, np.array([1.0, -1.0, 1.0, -1.0, 1.0]))


def test_legendre_low_orders_exact():
    seq = legendre_sequence(0.5, 2)
    assert seq.values[0] == 1.0
    assert seq.values[1] == 0.5
    assert seq.values[2] == -0.125


def test_legendre_table_rows_equal_scalar_recurrence_bitwise():
    # the table must reproduce the scalar loop exactly, on both sides of
    # the switch between the per-abscissa loop and the vector sweep
    special = [-1.0, -0.9999, 0.0, math.cos(math.pi / 6), 1.0]
    filler = list(np.linspace(-0.95, 0.95, 2 * _TABLE_VECTOR_MIN))
    for n in (1, len(special), _TABLE_VECTOR_MIN - 1, _TABLE_VECTOR_MIN,
              _TABLE_VECTOR_MIN + 1, 2 * _TABLE_VECTOR_MIN):
        xs = (special + filler)[:n]
        for L in (0, 1, 2, 500):
            table = _legendre_table(xs, L)
            assert table.shape == (len(xs), L + 1)
            assert table.flags.c_contiguous
            for row, x in zip(table, xs):
                assert np.array_equal(row, _legendre_values(x, L)), (n, L, x)


def test_legendre_domain_and_size_errors():
    with pytest.raises(DomainError):
        legendre_sequence(1.0000001, 3)
    with pytest.raises(DomainError):
        legendre_sequence(-1.5, 3)
    with pytest.raises(DomainError):
        legendre_sequence(0.5, -1)


def test_legendre_recurrence_residual_invariant():
    # |(2l+1) x P_l - (l+1) P_{l+1} - l P_{l-1}| <= 1e-13 (1 + |P_l|)
    for x in np.linspace(-1.0, 1.0, 101):
        P = legendre_sequence(x, 201).values
        for l in range(1, 201):
            resid = abs((2 * l + 1) * x * P[l] - (l + 1) * P[l + 1] - l * P[l - 1])
            assert resid <= 1e-13 * (1.0 + abs(P[l])), (x, l)


def test_legendre_bounded_by_one():
    for x in np.linspace(-1.0, 1.0, 101):
        values = legendre_sequence(x, 200).values
        assert np.max(np.abs(values)) <= 1.0


def test_derivative_identity_residual_small():
    assert legendre_derivative_identity_residual(0.3, 0) <= 1e-12
    # checked symbolically (sympy expansion of both sides) before freezing
    assert legendre_derivative_identity_residual(-0.9, 7) <= 1e-11
    assert legendre_derivative_identity_residual(1.0, 3) <= 1e-11


def test_derivative_identity_residual_suite():
    for x in np.linspace(-1.0, 1.0, 101):
        for l in (0, 1, 2, 5, 20, 100, 200):
            resid = legendre_derivative_identity_residual(x, l)
            assert resid <= 1e-12 * (2 * l + 1), (x, l)


def test_derivative_identity_domain_error():
    with pytest.raises(DomainError):
        legendre_derivative_identity_residual(1.1, 3)
    with pytest.raises(DomainError):
        legendre_derivative_identity_residual(0.5, -1)
