"""Coulomb scattering amplitudes, both ways.

The closed-form side (:mod:`coulomb_kit.coulomb_core`) evaluates the
S-matrix, phase shifts, the auxiliary function and the exact amplitude;
the series side (:mod:`coulomb_kit.summation`) sums the formally
divergent partial-wave expansion, by default as the Yennie-Ravenhall-
Wilson reduced series and on request by Abel smoothing plus
extrapolation, and the closed form is what it is checked against.
:mod:`coulomb_kit.cli` exposes both as a command-line tool.  Only the
series names, served on first use, and the Legendre functions load numpy.
"""

import importlib

from .errors import ConfigError, DomainError, GammaPoleError
from .special_functions import (
    gamma_ratio,
    legendre_derivative_identity_residual,
    legendre_sequence,
    log_gamma,
)
from .coulomb_core import (
    CLOSED_FORM,
    REGULARIZED_SERIES,
    AmplitudeResult,
    PartialWave,
    PhysicalParams,
    closed_amplitude,
    closed_auxiliary_sum,
    closed_partial_wave_sum,
    differential_cross_section,
    ode_residual,
    params_from_physical,
    s_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeResult",
    "CLOSED_FORM",
    "ConfigError",
    "ConvergenceReport",
    "DomainError",
    "GammaPoleError",
    "PartialWave",
    "PhysicalParams",
    "REGULARIZED_SERIES",
    "SummationConfig",
    "closed_amplitude",
    "closed_auxiliary_sum",
    "closed_partial_wave_sum",
    "completeness_kernel",
    "default_config",
    "differential_cross_section",
    "gamma_ratio",
    "legendre_derivative_identity_residual",
    "legendre_sequence",
    "log_gamma",
    "ode_residual",
    "params_from_physical",
    "s_matrix",
    "s_matrix_sequence",
    "series_amplitude",
    "series_amplitudes",
    "smoothed_auxiliary_sum",
    "smoothed_partial_wave_sum",
    "unregularized_partial_sums",
]


def __getattr__(name):
    # names of __all__ not bound above; "from . import" would recurse into this hook
    if name == "summation" or name in __all__:
        summation = importlib.import_module(".summation", __name__)
        return summation if name == "summation" else getattr(summation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
