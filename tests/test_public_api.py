"""The public names of ``coulomb_kit``: the series names are served lazily.

``import coulomb_kit`` binds the closed-form names and leaves the series
names to the package's module ``__getattr__``, which imports
``coulomb_kit.summation`` (and with it numpy) on first use.
"""

import copy
import inspect
import math
import pickle

import numpy as np
import pytest

import coulomb_kit
from coulomb_kit import coulomb_core, errors, special_functions, summation

SERIES_NAMES = {
    "ConvergenceReport", "SummationConfig", "completeness_kernel", "default_config",
    "s_matrix_sequence", "series_amplitude", "series_amplitudes", "smoothed_auxiliary_sum",
    "smoothed_partial_wave_sum", "unregularized_partial_sums",
}


@pytest.mark.parametrize("name", coulomb_kit.__all__)
def test_public_name_is_its_defining_module_object(name):
    obj = getattr(coulomb_kit, name)
    # CLOSED_FORM and REGULARIZED_SERIES are strings, defined in coulomb_core
    home = inspect.getmodule(obj) or coulomb_core
    assert home in (errors, special_functions, coulomb_core, summation)
    assert (home is summation) == (name in SERIES_NAMES)
    assert obj is getattr(home, name)


def test_summation_module_resolves():
    assert coulomb_kit.summation is summation
    assert coulomb_kit.__getattr__("summation") is summation


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from coulomb_kit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(coulomb_kit.__all__)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        coulomb_kit.no_such_name
    assert not hasattr(coulomb_kit, "cli_main")


def test_dir_lists_every_public_name():
    assert set(coulomb_kit.__all__) <= set(dir(coulomb_kit))


# --------------------------------------------------- the value classes

# (class, positional arguments, keyword arguments with every default spelled
# out, repr, one field changed); the keyword form gives the same object as
# the positional one
VALUES = [
    (coulomb_core.PhysicalParams, (1.0, 1.0), {"k": 1.0, "beta": 1.0},
     "PhysicalParams(k=1.0, beta=1.0)", ("beta", -1.0)),
    (coulomb_core.PartialWave, (2, -0.5 + 1j, 1.25), {"l": 2, "S": -0.5 + 1j, "delta": 1.25},
     "PartialWave(l=2, S=(-0.5+1j), delta=1.25)", ("l", 3)),
    (coulomb_core.AmplitudeResult, (0.5, 1 - 2j, "closed_form", 0.0),
     {"theta": 0.5, "f": 1 - 2j, "method": "closed_form", "error_estimate": 0.0},
     "AmplitudeResult(theta=0.5, f=(1-2j), method='closed_form', error_estimate=0.0)",
     ("method", "regularized_series")),
    (summation.SummationConfig, (300, (0.8, 0.4, 0.2, 0.1, 0.05)),
     {"l_max": 300, "epsilons": (0.8, 0.4, 0.2, 0.1, 0.05), "extrapolation_order": 4},
     "SummationConfig(l_max=300, epsilons=(0.8, 0.4, 0.2, 0.1, 0.05), extrapolation_order=4)",
     ("extrapolation_order", 3)),
    (summation.ConvergenceReport, ((0.1, 0.05), (1j, 2j), 3j, 1e-9),
     {"epsilons": (0.1, 0.05), "per_epsilon": (1j, 2j), "extrapolated": 3j,
      "tail_estimate": 1e-9, "extrapolation_noise": 0.0},
     "ConvergenceReport(epsilons=(0.1, 0.05), per_epsilon=(1j, 2j), extrapolated=3j, "
     "tail_estimate=1e-09, extrapolation_noise=0.0)", ("extrapolation_noise", 1e-12)),
]
VALUE_IDS = [entry[0].__name__ for entry in VALUES]


class _Twin:
    """Same field values as another class, for == across classes."""

    def __init__(self, **fields):
        self.__dict__.update(fields)


@pytest.mark.parametrize("cls, args, kwargs, text, change", VALUES, ids=VALUE_IDS)
def test_value_class_construction_and_repr(cls, args, kwargs, text, change):
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert by_position == by_keyword
    assert [getattr(by_keyword, name) for name in kwargs] == list(kwargs.values())
    assert repr(by_position) == repr(by_keyword) == text


@pytest.mark.parametrize("cls, args, kwargs, text, change", VALUES, ids=VALUE_IDS)
def test_value_class_equality_and_hash_by_value(cls, args, kwargs, text, change):
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert a != cls(**dict(kwargs, **dict([change])))
    # == holds within one class only: another class with the same values
    # differs, a subclass too
    subclass = type("Sub" + cls.__name__, (cls,), {"__slots__": ()})
    assert a != _Twin(**kwargs) and a != tuple(args) and a != subclass(*args)


@pytest.mark.parametrize("cls, args, kwargs, text, change", VALUES, ids=VALUE_IDS)
def test_value_class_fields_are_read_only(cls, args, kwargs, text, change):
    value = cls(*args)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.no_such_field = 1
    assert repr(value) == text


@pytest.mark.parametrize("cls, args, kwargs, text, change", VALUES, ids=VALUE_IDS)
def test_value_class_pickle_and_deepcopy_round_trip(cls, args, kwargs, text, change):
    value = cls(*args)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is cls and back == value and repr(back) == text
    for back in (copy.deepcopy(value), copy.copy(value)):
        assert type(back) is cls and back == value and repr(back) == text


def test_summation_config_normalises_before_it_checks():
    cfg = summation.SummationConfig(300.0, [0.1, 0.05], 1)
    assert cfg.l_max == 300 and type(cfg.l_max) is int
    assert cfg.epsilons == (0.1, 0.05) and type(cfg.epsilons) is tuple
    assert all(type(e) is float for e in cfg.epsilons)
    cfg = summation.SummationConfig(10, (1, 0.5), 1.0)
    assert type(cfg.extrapolation_order) is int and type(cfg.epsilons[0]) is float


MAX_L = errors.MAX_L
# each check in its order: an earlier failing field masks a later one
INVALID = [
    (coulomb_core.PhysicalParams, (0.0, math.inf), errors.DomainError,
     "wavenumber k must be finite and > 0, got 0.0"),
    (coulomb_core.PhysicalParams, (math.nan, 1.0), errors.DomainError,
     "wavenumber k must be finite and > 0, got nan"),
    (coulomb_core.PhysicalParams, (1.0, math.inf), errors.DomainError,
     "beta must be finite, got inf"),
    (coulomb_core.PhysicalParams, (1.0, -2e6), errors.DomainError,
     "|beta| must not exceed 1e+06, got -2000000.0"),
    (coulomb_core.AmplitudeResult, (0.0, complex(math.inf, 0.0), "closed_form", 0.0),
     errors.DomainError, "theta must be strictly positive, got 0.0"),
    (coulomb_core.AmplitudeResult, (1.0, complex(math.inf, 0.0), "closed_form", 0.0),
     OverflowError, "amplitude at theta = 1.0 is not finite: (inf+0j)"),
    (summation.SummationConfig, (2.5, (), 1.5), errors.ConfigError,
     "l_max must be an integer, got 2.5"),
    (summation.SummationConfig, (0, (), 1.5), errors.ConfigError,
     "extrapolation_order must be an integer, got 1.5"),
    (summation.SummationConfig, (0, (), 9), errors.ConfigError,
     f"l_max must be >= 1 and <= {MAX_L}, got 0"),
    (summation.SummationConfig, (MAX_L + 1, (0.1,), 0), errors.ConfigError,
     f"l_max must be >= 1 and <= {MAX_L}, got {MAX_L + 1}"),
    (summation.SummationConfig, (10, (), 9), errors.ConfigError,
     "epsilons must be non-empty"),
    (summation.SummationConfig, (10, (0.1, -0.05), 9), errors.ConfigError,
     "epsilons must all be finite and > 0, got (0.1, -0.05)"),
    (summation.SummationConfig, (10, (0.1, math.inf), 9), errors.ConfigError,
     "epsilons must all be finite and > 0, got (0.1, inf)"),
    (summation.SummationConfig, (10, [0.1, 0.1], 9), errors.ConfigError,
     "epsilons must be strictly decreasing, got (0.1, 0.1)"),
    (summation.SummationConfig, (10, (0.1, 0.05), 2), errors.ConfigError,
     "extrapolation_order must lie in [0, 1], got 2"),
    (summation.SummationConfig, (10, (0.1, 0.05), -1), errors.ConfigError,
     "extrapolation_order must lie in [0, 1], got -1"),
]


@pytest.mark.parametrize("cls, args, error, message", INVALID)
def test_value_class_checks_keep_type_message_and_order(cls, args, error, message):
    with pytest.raises(error) as info:
        cls(*args)
    assert type(info.value) is error
    assert str(info.value) == message


# ------------------------------------------------ orders are integers

P = coulomb_core.PhysicalParams(1.0, 1.0)
NOT_INTEGERS = [
    (lambda v: special_functions.legendre_sequence(0.3, v), errors.DomainError,
     "sequence length L"),
    (lambda v: coulomb_core.s_matrix(v, P), errors.DomainError, "partial-wave index l"),
    (lambda v: summation.SummationConfig(v, (0.1, 0.05), 1), errors.ConfigError, "l_max"),
    (lambda v: summation.SummationConfig(10, (0.1, 0.05), v), errors.ConfigError,
     "extrapolation_order"),
]


@pytest.mark.parametrize("call, error, name", NOT_INTEGERS,
                         ids=["legendre_sequence", "s_matrix", "l_max", "extrapolation_order"])
@pytest.mark.parametrize("value", ["1", " 1 ", "1.0", b"1", None, 1 + 0j, 1.5, math.nan],
                         ids=repr)
def test_order_that_is_not_an_integer_raises_typed_error(call, error, name, value):
    # a string, bytes, None or a complex number is no order, even if float() reads it
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("value", [1, True, np.int64(1), np.uint8(1), 1.0, np.float64(1.0)],
                         ids=repr)
def test_order_accepts_ints_and_integral_floats(value):
    assert len(special_functions.legendre_sequence(0.3, value)) == 2
    assert coulomb_core.s_matrix(value, P) == coulomb_core.s_matrix(1, P)
    cfg = summation.SummationConfig(value, (0.1, 0.05), value)
    assert (cfg.l_max, cfg.extrapolation_order) == (1, 1)
    assert type(cfg.l_max) is int and type(cfg.extrapolation_order) is int
    assert type(coulomb_core.s_matrix(value, P).l) is int
