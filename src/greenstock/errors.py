"""Typed errors and range checks shared across the toolkit, and the frozen-record base."""

import sys

_FLOAT_MAX = sys.float_info.max
_FLOAT_MIN = sys.float_info.min


class GreenstockError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(GreenstockError, ValueError):
    """A parameter violates its documented domain."""


class DegenerateGameError(GreenstockError):
    """No interior equilibrium (alpha=1, b=0), or a closed-form nu underflows or rounds onto phi."""


class ConvergenceError(GreenstockError):
    """Iterative solver failed to converge; carries the iterate trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class AllGridRegimeError(GreenstockError):
    """Grid power dominates at any demand level (p2 <= p1 + p)."""


class _Frozen:
    """Base of the records whose __new__ writes derived values into __dict__, outside
    the tuple's ==, hash, repr and iteration; assigning or deleting any attribute raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


def _whole(name: str, value, low: int) -> int:
    """`value` as an int >= low; ParameterError for nan, inf, fractions, bools and non-numbers."""
    try:
        whole = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value or whole < low:
        raise ParameterError(f"{name} must be an integer >= {low}, got {value!r}")
    return whole


def _positive(label: str, *values) -> None:
    """ParameterError unless every value is finite and > 0.  nan fails, and so does an
    int past float range, since the comparison with _FLOAT_MAX is exact."""
    for value in values:
        if not 0.0 < value <= _FLOAT_MAX:
            raise ParameterError(f"{label} must be finite and > 0, got {value}")


def _rate(label: str, value) -> None:
    """ParameterError unless value is finite and not below the smallest normal float,
    the floor of every rate (the supply rate nu, a station's lambda_bar); nan fails."""
    if not _FLOAT_MIN <= value <= _FLOAT_MAX:
        raise ParameterError(f"{label} must be finite and > 0, and not below the smallest "
                             f"normal float {_FLOAT_MIN}, got {value}")


def _nonnegative(label: str, *values) -> None:
    """ParameterError unless every value is finite and >= 0; as `_positive`, nan fails."""
    for value in values:
        if not 0.0 <= value <= _FLOAT_MAX:
            raise ParameterError(f"{label} must be finite and >= 0, got {value}")
