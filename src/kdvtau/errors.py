"""Exceptions shared across the package.

Every error below signals a *contract* violation (bad input, insufficient
truncation depth, an identity that a formula implementation must satisfy).
None of them are recoverable rounding issues: all arithmetic is exact.
"""

from __future__ import annotations

__all__ = [
    "ExactComputationError",
    "NonUnitError",
    "NotNormalizedError",
    "InsufficientDepthError",
    "InsufficientTableError",
    "OutOfRangeError",
    "DegreeExceededError",
    "InconsistentDivisionError",
]


class ExactComputationError(Exception):
    """Base class for all package-specific errors."""


class NonUnitError(ExactComputationError):
    """Series/polynomial inversion or log requires constant term 1."""


class NotNormalizedError(ExactComputationError):
    """Matrix series must start with the identity block."""


class InsufficientDepthError(ExactComputationError):
    """A coefficient beyond the guaranteed truncation window was requested."""


class InsufficientTableError(ExactComputationError):
    """An affine-coordinate table is too small for the requested expansion."""


class OutOfRangeError(ExactComputationError):
    """A table index lies outside the stored range."""


class DegreeExceededError(ExactComputationError):
    """A graded polynomial was queried beyond its reliable degree."""


class InconsistentDivisionError(ExactComputationError):
    """A formal division (by w+z or alpha-beta) failed its exactness check."""
