"""Exception types shared across the package, and :func:`parse_int`, the one
reader of integer text, which raises the error its caller names.

Every error raised deliberately by this library derives from :class:`SdxaError`,
so callers (and the command-line driver) can distinguish domain failures from
programming errors.
"""

from __future__ import annotations

import sys
from typing import Callable

#: The most digits ``int()`` reads from text, 0 for no limit: read once, as
#: Python before 3.10.7 has neither the limit nor its getter.
INT_MAX_STR_DIGITS: int = getattr(sys, "get_int_max_str_digits", int)()


def parse_int(text: str, error: Callable[[str], Exception] = ValueError,
              message: str | None = None, field: str | None = None) -> int:
    """The integer ``text`` spells in ASCII decimal digits after an optional
    ``-``, with no ``+``, space, ``_`` or other script's digit.  Other text
    raises ``error(message)``, by default with ``int()``'s own message; so does
    text past :data:`INT_MAX_STR_DIGITS` digits, unless ``field`` names it:
    then ``error("<field> has more than N digits")``."""
    digits = text.removeprefix("-")
    if digits.isdigit() and digits.isascii():
        if not INT_MAX_STR_DIGITS or len(digits) <= INT_MAX_STR_DIGITS:
            return int(text)
        if field is not None:
            raise error(f"{field} has more than {INT_MAX_STR_DIGITS} digits")
    raise error(message or f"invalid literal for int() with base 10: {text!r:.200}")


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
