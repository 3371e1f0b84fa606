"""Exception types, the shared input checks, and the value classes' base.

The rules for angles, abscissae, orders and table sizes live here, each
with one wording and one exception type, and each check returns its
argument as a float or int.  k, mu, E, hbar, kappa and beta are checked
in coulomb_core, eps in summation and --tol in cli.
"""

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation
    (e.g. a forward-direction angle, an abscissa beyond [-1, 1], a
    negative order, or a non-positive energy)."""


class GammaPoleError(DomainError):
    """The gamma function was requested at a non-positive integer, where
    it has a pole."""


class ConfigError(ValueError):
    """A configuration object violates its structural invariants."""


class Record:
    """Immutable value: ==, hash and repr by its fields, == within one class.

    A subclass sets ``__slots__ = __match_args__`` to its fields in order,
    and its ``__init__`` sets each through its slot's ``__set__``, bound once
    at module level.  Pickle and copy rebuild the object through its class.
    """

    __slots__ = __match_args__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self.__reduce__() == other.__reduce__() if same else NotImplemented

    def __hash__(self):
        return hash(self.__reduce__()[1])


# angles closer to the forward direction than this are rejected, not clamped
MIN_THETA = 1e-9

# largest order that sizes an array or table (64 Abel angles: 4 s, 125 MiB, 2 cores)
MAX_L = 2**18

# slack for theta == pi given in decimal (e.g. 3.14159265359 on the CLI)
_THETA_MAX_SLACK = 1e-9


def check_theta(theta) -> float:
    """A scattering angle in [MIN_THETA, pi] (pi up to a 1e-9 slack)."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta!r}")
    if theta < MIN_THETA:
        raise DomainError(
            f"theta = {theta!r} is too close to the forward direction; "
            f"the amplitude is undefined at theta = 0 (minimum {MIN_THETA:g})"
        )
    if theta > math.pi + _THETA_MAX_SLACK:
        raise DomainError(f"theta must not exceed pi, got {theta!r}")
    return theta


def check_cosine(x) -> float:
    """x = cos(theta) in [-1, 1): x = 1 is the forward-direction branch point."""
    x = float(x)
    if not -1.0 <= x < 1.0:
        raise DomainError(
            f"cos(theta) must lie in [-1, 1), got {x!r}; "
            "x = 1 is the forward-direction branch point"
        )
    return x


def check_abscissa(x) -> float:
    """A Legendre abscissa in [-1, 1]."""
    x = float(x)
    if not -1.0 <= x <= 1.0:
        raise DomainError(f"Legendre abscissa must lie in [-1, 1], got {x!r}")
    return x


def check_integer(value, name: str, error=DomainError) -> int:
    """An int (numpy's and bool too) or an integral float, as an int; else ``error``."""
    if not (hasattr(value, "__index__") or isinstance(value, float) and value.is_integer()):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_order(value, name: str) -> int:
    """An order, index or length >= 0; ``name`` is how the message calls it."""
    value = check_integer(value, name)
    if value < 0:
        raise DomainError(f"{name} must be >= 0, got {value}")
    return value


def check_length(value, name: str) -> int:
    """An order that sizes an array or table: in [0, MAX_L]."""
    value = check_order(value, name)
    if value > MAX_L:
        raise DomainError(f"{name} must be <= {MAX_L}, got {value}")
    return value


def check_size(value: int, name: str) -> int:
    """A count or truncation order that sizes a table: in [1, MAX_L]; else ConfigError."""
    if not 1 <= value <= MAX_L:
        raise ConfigError(f"{name} must be >= 1 and <= {MAX_L}, got {value!r}")
    return value
