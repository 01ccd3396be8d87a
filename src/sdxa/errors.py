"""Exception types shared across the package.

Every error raised deliberately by this library derives from :class:`SdxaError`,
so callers (and the command-line driver) can distinguish domain failures from
programming errors.
"""

from __future__ import annotations


class SdxaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SdxaError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class DegreeMismatchError(DomainError):
    """An element's residue vector does not match its group's rank."""


class PatternError(SdxaError, ValueError):
    """A splitting-pattern string is malformed or fails a degree assertion."""


class RecordParseError(SdxaError, ValueError):
    """A census record line cannot be parsed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class RecordValidationError(SdxaError, ValueError):
    """A parsed census record violates a consistency invariant.

    Carries the label of the offending record.
    """

    def __init__(self, message: str, label: str):
        self.label = label
        super().__init__(f"record {label!r}: {message}")


class InsufficientDataError(SdxaError):
    """A record lacks the data needed to answer the question exactly.

    Raised instead of silently defaulting, e.g. when an even-order abelian
    record carries no quadratic-subfield discriminants but a disjointness
    decision requires them.
    """


class MissingExponentError(SdxaError, KeyError):
    """An exponent map does not cover some required conjugacy class."""


class DivergentSeriesError(DomainError):
    """Series parameters yield a divergent sum (non-negative dyadic exponent)."""
