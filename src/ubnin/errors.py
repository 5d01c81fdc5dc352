"""Exception types shared across the package, and the checks of numeric arguments."""

import numpy as np


class UbninError(Exception):
    """Base class for package-specific errors."""


class ValidationError(UbninError, ValueError):
    """Input data violates a structural contract (shape, symmetry, finiteness, format).

    Also a ``ValueError``, so code that catches a bad argument as one still does.
    """


class MalformedCodeError(UbninError):
    """A serialized network code is non-canonical, out of bounds, or unparseable."""


class DegenerateDesignError(UbninError):
    """A statistical routine received data it cannot meaningfully analyze."""


class UndefinedMetricError(UbninError):
    """A graph metric is undefined for the given network, e.g. no reachable node pairs."""


class NotEstimableError(UbninError):
    """Small-world comparison failed because a random reference lacks a defined metric."""


def _check_count(name: str, value, minimum: int | None = None,
                 types=(int, np.integer)) -> None:
    """Raise ValidationError unless ``value`` is an instance of ``types`` (a
    type or tuple of types) but not a bool, and, if ``minimum`` is given, at
    least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(
            f"{name} must be nonnegative" if minimum == 0 else f"{name} must be >= {minimum}")


def _check_fraction(name: str, value) -> None:
    """Raise ValidationError unless ``value`` lies in (0, 1]; NaN does not."""
    if not 0 < value <= 1:
        raise ValidationError(f"{name} must lie in (0, 1], got {value}")
