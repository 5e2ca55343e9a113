"""Exception types, grouped by how the CLI maps them to exit codes."""

from __future__ import annotations


class FluxwalkError(Exception):
    """Base class for all library errors."""


class ValidationError(FluxwalkError):
    """A scenario, lead network, path, or field violates its invariants."""


class DimensionMismatchError(ValidationError):
    """Operator and state disagree on the internal dimension."""


class ConsistencyError(FluxwalkError):
    """An internal invariant failed: a self-check of computed results."""


class CertificationError(FluxwalkError):
    """The spectral certificate at infinity failed; the index is undefined."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class EigenvalueAmbiguityError(FluxwalkError):
    """An eigenvalue landed in the guard band around +-1; refusing to count it."""

    def __init__(self, label, value, tolerance):
        super().__init__(
            f"eigenvalue {value!r} at block {label!r} falls inside the guard band "
            f"around +-1 (tolerance {tolerance:g}); review tolerances"
        )
        self.label = label
        self.value = value


class NonSummableError(FluxwalkError):
    """Block trace norms do not sum; the requested trace formula is undefined."""
