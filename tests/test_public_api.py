"""The public names of ``coulomb_kit``: the series names are served lazily.

``import coulomb_kit`` binds the closed-form names and leaves the series
names to the package's module ``__getattr__``, which imports
``coulomb_kit.summation`` (and with it numpy) on first use.
"""

import inspect

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
