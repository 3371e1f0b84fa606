"""Tests for the complex log-gamma wrapper and Legendre recurrences."""

import cmath
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coulomb_kit import special_functions
from coulomb_kit.errors import MAX_L, DomainError, GammaPoleError
from coulomb_kit.special_functions import (
    MAX_GAMMA_ARGUMENT_MODULUS,
    _legendre_table,
    _legendre_values,
    gamma_ratio,
    legendre_derivative_identity_residual,
    legendre_sequence,
    log_gamma,
)
from coulomb_kit.summation import _TABLE_VECTOR_MIN

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
    # Stirling's region is 2**20 unit shifts away at Re z + |Im z| = 12 - 2**20;
    # further left the shift loop took 2 s at -1e7 + i and never ended at -1e300 + i
    for z in (-1e7 + 1j, complex(-1e7, -1.0), complex(11 - 2**20, 0.5), -1e300 + 1j):
        with pytest.raises(OverflowError, match="supported range"):
            log_gamma(z)
    with pytest.raises(OverflowError, match="supported range"):
        gamma_ratio(-1e12 + 1j, 2.0)


@pytest.mark.parametrize("z", [complex(1.7e308, 1.7e308), complex(-1.7e308, 1.7e308),
                               complex(1e308, -1e308), complex(1e300, 1e300),
                               complex(1.01e300, 0.0)])
def test_log_gamma_beyond_the_float_range_raises_its_own_message(z):
    # abs(z) overflows for the first two: the parts are compared first
    with pytest.raises(OverflowError, match="exceeds the supported range"):
        log_gamma(z)
    with pytest.raises(OverflowError, match="exceeds the supported range"):
        gamma_ratio(z, 2.0)


def test_log_gamma_conjugate_symmetry_is_exact():
    rng = np.random.default_rng(20240517)
    for _ in range(500):
        z = complex(rng.uniform(-50, 50), rng.uniform(0.05, 100))
        assert log_gamma(z.conjugate()) == log_gamma(z).conjugate()


def mp_log_gamma(z: complex) -> complex:
    """ln Gamma(z) from mpmath at 30 digits.  mpmath has no signed zero, so
    the lower half plane, Im z = -0.0 included, is taken as the mirror image."""
    if math.copysign(1.0, z.imag) < 0.0:
        return mp_log_gamma(z.conjugate()).conjugate()
    with mp.workdps(30):
        return complex(mp.loggamma(mp.mpc(z.real, z.imag)))


STRIP = st.builds(complex, st.floats(-50, 50), st.floats(-100, 100))
NEAR_ZEROS = st.builds(lambda centre, r, angle: centre + cmath.rect(r, angle),
                       st.sampled_from([1.0, 2.0]), st.floats(0, 0.1), st.floats(-math.pi, math.pi))
NEAR_CUT = st.builds(complex, st.floats(-50, 0), st.floats(-1e-12, 1e-12))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(STRIP, NEAR_ZEROS, NEAR_CUT))
@example(complex(1.0, 0.0))
@example(complex(2.0, 0.0))
@example(complex(1.0 + 1e-9, -1e-9))
@example(complex(1.93, 0.05))
@example(complex(-2.5, 1e-12))
@example(complex(-2.5, -1e-12))
@example(complex(-49.5, 0.0))
@example(complex(-0.5, -0.0))
@example(complex(-1e6, 1.0))
@example(complex(11 - 2**20, 1.0))  # the last argument log_gamma accepts on this line
def test_log_gamma_meets_documented_bound(z):
    # 1e-13 relative, with a 1e-13 absolute floor where |ln Gamma| < 1
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        with pytest.raises(GammaPoleError):
            log_gamma(z)
        return
    ref = mp_log_gamma(z)
    assert abs(log_gamma(z) - ref) <= 1e-13 * max(1.0, abs(ref)), z


@pytest.mark.parametrize("re, im", [(1e200, 1e200), (1e155, 1e155), (1.3e154, 1e200),
                                    (-1e200, 1e200)])
@pytest.mark.parametrize("signs", [(1, 1), (-1, 1), (-1, -1), (1, -1)])
def test_log_gamma_where_z_squared_overflows(re, im, signs):
    # z * z is inf - inf there: Stirling's first term alone, every later one below
    # 1e-450 |z|, keeps the documented bound up to |z| = 1e300
    z = complex(signs[0] * re, signs[1] * im)
    ref = mp_log_gamma(z)
    assert abs(log_gamma(z) - ref) <= 1e-13 * abs(ref), z


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
    assert np.array_equal(seq, np.ones(6))


def test_legendre_at_minus_one_alternates():
    seq = legendre_sequence(-1.0, 4)
    assert np.array_equal(seq, np.array([1.0, -1.0, 1.0, -1.0, 1.0]))


def test_legendre_low_orders_exact():
    seq = legendre_sequence(0.5, 2)
    assert seq[0] == 1.0
    assert seq[1] == 0.5
    assert seq[2] == -0.125


def test_legendre_table_rows_equal_scalar_recurrence_bitwise():
    # the table must reproduce the scalar loop exactly, on both sides of
    # _damped_sums' switch between the per-abscissa loop and the vector sweep
    special = [-1.0, -0.9999, 0.0, math.cos(math.pi / 6), 1.0]
    filler = list(np.linspace(-0.95, 0.95, 2 * _TABLE_VECTOR_MIN))
    for n in (1, len(special), _TABLE_VECTOR_MIN - 1, _TABLE_VECTOR_MIN,
              _TABLE_VECTOR_MIN + 1, 2 * _TABLE_VECTOR_MIN):
        xs = (special + filler)[:n]
        for L in (0, 1, 2, 500):
            table = _legendre_table(xs, L)
            assert table.shape == (len(xs), L + 1)
            # the documented layout: a Fortran-ordered view of the
            # degree-major work array, at every n
            assert table.flags.f_contiguous and table.base is not None
            for row, x in zip(table, xs):
                assert np.array_equal(row, _legendre_values(x, L)), (n, L, x)
    # a long sweep on both sides of the switch, through the end points, 0 and
    # an abscissa next to 1, whose P_l stay near 1 for thousands of degrees
    special = [1.0, -1.0, 0.0, math.cos(1e-3), -math.cos(1e-3)]
    L = 8192
    want = [_legendre_values(x, L).tobytes() for x in special]
    for n in (_TABLE_VECTOR_MIN - 1, _TABLE_VECTOR_MIN):
        xs = (special * n)[:n]
        table = _legendre_table(xs, L)
        assert [row.tobytes() for row in table] == (want * n)[:n], n
    # a grid whose rows pass 256 KiB, where numpy elides the temporaries of
    # the step's operators and so computes it in place
    xs = np.concatenate((special, np.linspace(-1.0, 1.0, 32768)))
    assert np.array_equal(_legendre_table(xs, 5), [_legendre_values(x, 5) for x in xs])


def _integer_counter_legendre(x, L, head=(1.0,)):
    """The textbook recurrence, degrees as ints, one list entry per degree."""
    P = [0.0] + [float(v) for v in head]                 # P[l + 1] = P_l
    for l in range(len(head) - 1, L):
        P.append(((2 * l + 1) * x * P[l + 1] - l * P[l]) / (l + 1))
    return np.array(P[1:])


def test_legendre_values_match_integer_counter_recurrence_bitwise(monkeypatch):
    # the loop reads its degree constants from a table below 2^14 and counts
    # them as floats past it; every step must still round as the
    # integer-counter recurrence does, fresh and resumed, on both sides
    xs = (-1.0, -0.9999, 0.0, math.cos(1e-3), math.cos(math.pi / 6), 0.9999, 1.0)
    bound = 1 << 14
    for x in xs:
        for L in (0, 1, 2, 257, 4096, bound + 257):
            want = _integer_counter_legendre(x, L).tobytes()
            assert _legendre_values(x, L).tobytes() == want, (x, L)
            # resumed after heads of 1, 2, 257, 2^14 - 1, 2^14 and 2^14 + 1 rows
            for m in (0, 1, 256, bound - 2, bound - 1, bound):
                if m > L:
                    continue
                head = _integer_counter_legendre(x, m)
                assert _legendre_values(x, L, head).tobytes() == want, (x, L, m)
    degrees = np.arange(4097)
    assert np.array_equal(_legendre_values(1.0, 4096), np.ones(4097))
    assert np.array_equal(_legendre_values(-1.0, 4096), np.where(degrees % 2, -1.0, 1.0))
    # from a cleared table, long then short and short then long: the table
    # stops at 2^14 entries and neither order moves a bit
    x = math.cos(math.pi / 6)
    for lengths in ((bound + 257, 300), (300, bound + 257)):
        monkeypatch.setattr(special_functions, "_DEGREES", [])
        for L in lengths:
            assert _legendre_values(x, L).tobytes() == _integer_counter_legendre(x, L).tobytes()
        assert len(special_functions._DEGREES) == bound, lengths


def test_packed_handoff_matches_integer_counter_recurrence_bitwise():
    # the loop's new P_l reach numpy as one struct-packed copy: none or one new
    # value, heads on both sides of 256 and 2^14, and a head that is a strided
    # row of the vector table, as a grid's first rung hands over
    bound = 1 << 14
    for x in (-0.9999, 0.3, math.cos(1e-3)):
        for m in (0, 256, bound - 1, bound):             # heads of 1, 257, 2^14, 2^14 + 1 rows
            head = _integer_counter_legendre(x, m)
            for L in (m, m + 1, m + 300):                # 0, 1 and 300 new values
                got = _legendre_values(x, L, head)
                assert got.flags.c_contiguous and got.flags.writeable, (x, m, L)
                assert got.tobytes() == _integer_counter_legendre(x, L).tobytes(), (x, m, L)
    xs = [-0.9999, 0.3, math.cos(1e-3)] * 9
    rows = _legendre_table(xs, 256)
    assert rows[1].strides == (8 * len(xs),)           # a strided view, not a copy
    for x, row in zip(xs[:3], rows):
        for L in (256, 257, 600):
            assert _legendre_values(x, L, row).tobytes() == _integer_counter_legendre(x, L).tobytes()


def test_concurrent_scalar_sweeps_growing_a_cleared_table_match_serial(monkeypatch):
    # short and long sweeps race to grow a cleared degree table, with a short
    # switch interval to interleave the builds; a sweep that reads the table
    # before another rebinds it, longer or shorter, keeps the list it read, so
    # every row must still be the serial one
    bound = 1 << 14
    jobs = [(x, L) for L in (bound + 257, 40, 3000, bound - 1, 300, 9000)
            for x in (0.3, -0.9999, math.cos(1e-3))]
    serial = {job: _integer_counter_legendre(*job).tobytes() for job in jobs}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for order in (jobs, jobs[::-1]):
            monkeypatch.setattr(special_functions, "_DEGREES", [])
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(_legendre_values, *job) for job in order]
                parallel = [f.result(timeout=120).tobytes() for f in futures]
            assert parallel == [serial[job] for job in order]
            assert len(special_functions._DEGREES) <= bound
    finally:
        sys.setswitchinterval(interval)


def test_legendre_domain_and_size_errors():
    with pytest.raises(DomainError):
        legendre_sequence(1.0000001, 3)
    with pytest.raises(DomainError):
        legendre_sequence(-1.5, 3)
    for bad in (-1, MAX_L + 1, 2.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            legendre_sequence(0.5, bad)
    # integral orders of any type are accepted
    for good in (4, np.int64(4), 4.0):
        assert np.array_equal(legendre_sequence(0.3, good), legendre_sequence(0.3, 4))


def test_legendre_recurrence_residual_invariant():
    # |(2l+1) x P_l - (l+1) P_{l+1} - l P_{l-1}| <= 1e-13 (1 + |P_l|)
    for x in np.linspace(-1.0, 1.0, 101):
        P = legendre_sequence(x, 201)
        for l in range(1, 201):
            resid = abs((2 * l + 1) * x * P[l] - (l + 1) * P[l + 1] - l * P[l - 1])
            assert resid <= 1e-13 * (1.0 + abs(P[l])), (x, l)


def test_legendre_bounded_by_one():
    for x in np.linspace(-1.0, 1.0, 101):
        values = legendre_sequence(x, 200)
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
    for bad in (-1, MAX_L + 1, 2.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            legendre_derivative_identity_residual(0.5, bad)


# ordinary values stop at 1e4, so no draw shifts more than about 1e4 times
_EXTREMES = [0.0, 5e-324, 1e-300, 1e-160, 1.3e154, 1e200, 1e300, 1.7e308, math.inf,
             0.5, 1.0, 2.0, 2.5, 12.0, 1e4]
EXTREME = st.sampled_from(_EXTREMES + [-v for v in _EXTREMES] + [math.nan])
DEGREE = st.sampled_from([0, 1, 2, 7, 2000, MAX_L + 1, -1]) | EXTREME


def _in_declared_range(z: complex) -> bool:
    """|z| <= 1e300 and Re z + |Im z| >= 12 - 2**20, for finite z."""
    return (math.hypot(z.real, z.imag) <= MAX_GAMMA_ARGUMENT_MODULUS
            and 12.0 - z.real - abs(z.imag) <= 2**20)


def _finite_or_typed_error(fn, *args, overflow=None):
    """fn(*args) if finite; None on DomainError (GammaPoleError included) or on an
    OverflowError whose message contains ``overflow``.  Anything else fails."""
    try:
        value = fn(*args)
    except DomainError:
        return None
    except OverflowError as exc:
        assert overflow is not None and overflow in str(exc), (fn.__name__, args, exc)
        return None
    assert np.all(np.isfinite(value)), (fn.__name__, args, value)
    return value


@settings(derandomize=True, max_examples=300, deadline=None)
@given(re=EXTREME, im=EXTREME, other=st.tuples(EXTREME, EXTREME), x=EXTREME, degree=DEGREE)
@example(re=1e200, im=1e200, other=(1.0, 0.0), x=0.5, degree=2)      # z * z overflowed
@example(re=1.7e308, im=1.7e308, other=(1.0, 0.0), x=0.5, degree=2)  # abs(z) overflowed
def test_special_functions_at_extreme_floats_give_a_finite_value_or_a_typed_error(
        re, im, other, x, degree):
    z, w = complex(re, im), complex(*other)
    finite = [v for v in (z, w) if cmath.isfinite(v)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for v in finite:
            # beyond the declared range the message names it; within it a finite value
            out = None if _in_declared_range(v) else "exceeds the supported range"
            _finite_or_typed_error(log_gamma, v, overflow=out)
        if len(finite) == 2 and all(map(_in_declared_range, finite)):
            # in range, only a ratio past exp's range overflows
            _finite_or_typed_error(gamma_ratio, z, w, overflow="overflows: ln|ratio|")
        else:
            _finite_or_typed_error(gamma_ratio, z, w, overflow="exceeds the supported range")
        _finite_or_typed_error(legendre_sequence, x, degree)
        _finite_or_typed_error(legendre_derivative_identity_residual, x, degree)
    assert caught == [], [str(w.message) for w in caught]
