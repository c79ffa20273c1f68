"""Exception hierarchy shared across the package.

All errors raised for *mathematically invalid input* derive from
:class:`MWLatticeError` so callers (and the CLI) can distinguish bad data
from programming mistakes.  ``_shown`` writes the numbers in their
messages, also those too long for Python's int-to-str conversion, and
``_quoted`` the input strings, cut to a bounded prefix.
"""

from __future__ import annotations

from decimal import Decimal


class MWLatticeError(ValueError):
    """Base class for input and consistency errors raised by this package."""


class InputFormatError(MWLatticeError):
    """A JSON document does not match the expected schema."""


class ModelMismatchError(MWLatticeError):
    """Two divisor classes live on surface models with different bases."""


class InvalidModelError(MWLatticeError):
    """A surface model violates a precondition (e.g. n != 4g+4)."""


class FormError(MWLatticeError):
    """A bilinear form fails a required property (definite, nonsingular)."""


class NotAFiberError(MWLatticeError):
    """A declared component list admits no positive integral fiber relation."""


class ConfigurationError(MWLatticeError):
    """A scenario or a setting does not satisfy a computation's precondition."""


class CoefficientError(MWLatticeError):
    """A pencil or double-cover coefficient table is malformed."""


class ShapeError(MWLatticeError):
    """A polynomial does not have the degree shape an operation requires."""


class ContactError(MWLatticeError):
    """A contact order is undefined (curve contains the tested branch)."""


class InternalConsistencyError(MWLatticeError):
    """Two independent computations of the same quantity disagree."""


class _Digits:
    """An integer as a message prints it: in full, or as its digit count where
    Python's limit on int-to-str conversion refuses to print it."""

    def __init__(self, value: int):
        self.value = value

    def __repr__(self) -> str:
        try:
            return repr(self.value)
        except ValueError:
            sign = "-" if self.value < 0 else ""
            return "%s<%d digits>" % (sign, Decimal(self.value).adjusted() + 1)


def _shown(value) -> str:
    """``str(value)`` for an int, or a tuple or list of ints, in a message; an
    integer too long to print is written as ``<N digits>``."""
    try:
        return str(value)
    except ValueError:
        if isinstance(value, (list, tuple)):
            return str(type(value)(map(_Digits, value)))
        return repr(_Digits(value))


# Longest piece of an offending input value that a message quotes.
_QUOTE_CHARS = 40


def _quoted(value) -> str:
    """``repr`` of an input value for a message, cut after 40 characters.

    A longer string is quoted by its first 40 characters and its length,
    so that one huge value cannot make a huge message.
    """
    if isinstance(value, str):
        if len(value) <= _QUOTE_CHARS:
            return repr(value)
        return "{!r}... ({:,} characters)".format(value[:_QUOTE_CHARS], len(value))
    text = repr(value)
    if len(text) <= _QUOTE_CHARS:
        return text
    return "{}... ({:,} characters)".format(text[:_QUOTE_CHARS], len(text))
