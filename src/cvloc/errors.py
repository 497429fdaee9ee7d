"""Exception types shared across the toolkit, and the integer and number checks."""

from __future__ import annotations

import numbers


class CvlocError(Exception):
    """Base class for all cvloc errors. Each class carries the CLI's exit
    code for it and the label that starts the CLI's one-line message."""

    exit_code = 2
    label = "invalid input"


class DomainError(CvlocError, ValueError):
    """An argument value lies outside the mathematical domain of an operation."""


class ContractError(CvlocError, ValueError):
    """Inputs violate a structural contract (shape, channel count, emptiness)."""


class FormatError(CvlocError):
    """A CVLS file failed parsing or validation.

    ``field`` names the offending part of the file when known.
    """

    exit_code = 3
    label = "format error"

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class SingularSystemError(CvlocError):
    """A damped normal-equation system that cannot be solved. No cvloc code
    raises it: ``solver.lm_step`` returns None instead. It stays because
    the benchmark's tests (``bench/tests/test_run.py``) raise it by name."""

    exit_code = 4
    label = "singular system"


class DegenerateProblemError(CvlocError):
    """No valid points remain, so the alignment objective is undefined.

    Raised for a ``localize`` report that reads ``degenerate``, an ``eval``
    bound whose every trial does, and by ``checks.weighted_distance``.
    """

    exit_code = 4
    label = "degenerate problem"


class GenerationError(CvlocError):
    """Synthetic scene generation could not produce a usable scene."""

    exit_code = 4
    label = "scene generation error"


class ConfigError(CvlocError):
    """A configuration file or value is invalid."""

    label = "config error"


def require_int(name: str, value, minimum: int) -> int:
    """``value``; raise DomainError unless it is an integer >= ``minimum``.

    Booleans are rejected although Python counts them as integers, so a
    JSON ``true`` cannot stand in for 1.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    return value


def require_number(name: str, value) -> float:
    """``value`` as a float; raise DomainError unless it is a real number,
    which a JSON ``true`` or ``"0.5"`` is not, and OverflowError for an
    integer beyond the float range. Finiteness is the value type's rule."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a number, got {value!r}")
    return float(value)
