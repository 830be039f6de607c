"""Exception types shared across the package."""

from __future__ import annotations


class PmuStreamError(Exception):
    """Base class for all package errors."""


class InvalidInputError(PmuStreamError, ValueError):
    """An argument violates a documented precondition."""


class DomainError(PmuStreamError, ValueError):
    """A time or value falls outside the valid domain."""


class SequencingError(PmuStreamError, ValueError):
    """A stream element arrived out of time order."""


class DegenerateSignalError(PmuStreamError, ArithmeticError):
    """The input signal carries no usable fundamental component."""


class UndefinedMetricError(PmuStreamError, ArithmeticError):
    """A metric is undefined for the given reference (e.g. zero magnitude)."""


class ProfileError(PmuStreamError, ValueError):
    """A profile file failed to parse or validate.

    ``row`` is the 1-based line number in the file when known.
    """

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"{message} (row {row})"
        super().__init__(message)


class ConfigError(PmuStreamError, ValueError):
    """An experiment configuration is missing or inconsistent."""


def with_context(exc: BaseException, context: str) -> BaseException:
    """Prefix ``context`` to the message of ``exc`` in place; its type, which
    callers map to exit codes, is kept.  Returns ``exc`` for ``raise``."""
    exc.args = (f"{context}: {exc}",)
    return exc
