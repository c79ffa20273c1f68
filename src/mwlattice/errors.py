"""Exception hierarchy shared across the package.

All errors raised for *mathematically invalid input* derive from
:class:`MWLatticeError` so callers (and the CLI) can distinguish bad data
from programming mistakes.
"""

from __future__ import annotations


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
