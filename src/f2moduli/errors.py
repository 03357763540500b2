"""Shared exception types."""

from __future__ import annotations


class ShapeError(ValueError):
    """Operands have incompatible dimensions; the message names the slot."""


class ValidationError(ValueError):
    """A structural invariant failed; the message names the first offender."""


class InfeasibleError(ValueError):
    """No witness exists for the requested rank/constraint combination."""
