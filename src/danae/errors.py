"""Exception hierarchy shared by all modules, and the integer check of their settings.

The CLI maps these onto exit codes: ConfigError (and subclasses) -> 2,
DataError/InvalidInputError -> 3, NumericalError -> 4.
"""

import numbers


class DanaeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DanaeError):
    """Invalid configuration, option value, or usage."""


class ShapeError(ConfigError):
    """Mismatched or impossible array/series shapes."""


class InvalidInputError(DanaeError, ValueError):
    """Input values that violate an operation's preconditions."""


class DataError(DanaeError):
    """Malformed or internally inconsistent data files."""


class NumericalError(DanaeError):
    """Numerical failure: singular matrices, gimbal lock, divergence."""


class StateError(DanaeError):
    """Operation called in the wrong order (e.g. backward before forward)."""


def check_integer(name: str, value, minimum: int) -> None:
    """Raise ConfigError unless `value` is an integer >= `minimum`, a bool
    not counting as one; `name` is the setting the message names."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
