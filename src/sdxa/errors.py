"""Exception types shared across the package, :class:`Frozen`, the base of every
value type, its lazy facts (:class:`cached_property`), and the readers of
integer, rational and float text.

Every error raised deliberately by this library derives from :class:`SdxaError`,
so callers (and the command-line driver) can distinguish domain failures from
programming errors.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Any, Callable

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


def parse_fraction(text: str, error: Callable[[str], Exception] = ValueError,
                   message: str | None = None) -> Fraction:
    """The rational ``text`` spells as ``n``, ``n/m`` or ``n.f``, read by
    :func:`parse_int` with only ``n`` signed; other text, and ``m = 0``, raise
    ``error(message)``, by default with ``Fraction``'s own message."""
    message = message or f"Invalid literal for Fraction: {text!r:.200}"
    head, mark, tail = text.partition("/" if "/" in text else ".")
    numerator = parse_int(head if mark == "/" else head + tail, error, message)
    denominator = parse_int(tail, error, message) if mark == "/" else 10 ** len(tail)
    if tail[:1] == "-" or not denominator:
        raise error(message)
    return Fraction(numerator, denominator)


def parse_float(text: str, error: Callable[[str], Exception] = ValueError,
                message: str | None = None) -> float:
    """The float ``text`` spells as ``float()`` reads it, but in ASCII with no
    ``_`` and no surrounding space; other text raises ``error(message)``, by
    default with ``float()``'s own message.  ``inf``, ``nan`` and overflow to
    ``inf`` are read, for the caller to refuse."""
    if text.isascii() and "_" not in text and text.strip() == text:
        try:
            return float(text)
        except ValueError:
            pass
    raise error(message or f"could not convert string to float: {text!r}")


class FrozenInstanceError(AttributeError):
    """A value's attribute was assigned or deleted: a bug, so not an :class:`SdxaError`."""


def _within_one_type(compare: Callable[[tuple, tuple], bool]) -> Callable[..., bool]:
    """``compare`` as an ordering method of :class:`Frozen`."""
    def method(self: Frozen, other: object) -> bool:
        if self._ordered and type(other) is type(self):
            return compare(self, other)  # type: ignore[arg-type]
        raise TypeError(f"{type(self).__name__} is not ordered against {type(other).__name__}")
    return method


class Frozen:
    """The base of a value type, ahead of the ``namedtuple`` of its fields: no
    attribute is assigned or deleted, a value equals and hashes as a tuple but
    only against its own type, and orders so (if ``_ordered``) or not at all.
    ``_make``, and so ``_replace``, calls the constructor, which checks every copy."""

    __slots__ = ()
    _ordered = False

    def __setattr__(self, name: str, value: object = None) -> None:
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)  # type: ignore[arg-type]

    __lt__, __le__, __gt__, __ge__ = map(_within_one_type, (tuple.__lt__, tuple.__le__,
                                                            tuple.__gt__, tuple.__ge__))
    __delattr__, __ne__, __hash__ = __setattr__, object.__ne__, tuple.__hash__
    _make = classmethod(lambda cls, fields: cls(*fields))


class cached_property:
    """A method read as an attribute, computed on first access and stored under
    its name in the instance's ``__dict__``, which answers every later read:
    ``functools.cached_property`` without the lock it takes before Python 3.12."""

    def __init__(self, method: Callable[[Any], Any]) -> None:
        self.method, self.name, self.__doc__ = method, method.__name__, method.__doc__

    def __get__(self, instance: object, owner: type | None = None) -> Any:
        if instance is None:
            return self
        value = vars(instance)[self.name] = self.method(instance)
        return value


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
