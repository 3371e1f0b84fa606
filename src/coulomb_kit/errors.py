"""Exception types and the input checks that raise them.

Every scalar domain rule of the package lives here, so each rule has one
wording and one exception type.  Each check returns its argument
converted (to float or int), so callers write ``x = check_cosine(x)``.
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


# angles closer to the forward direction than this are rejected, not clamped
MIN_THETA = 1e-9

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


def check_order(value, name: str) -> int:
    """An order, index or length >= 0; ``name`` is how the message calls it."""
    value = int(value)
    if value < 0:
        raise DomainError(f"{name} must be >= 0, got {value}")
    return value
