"""Shared exception types."""


class InvalidArcPresentation(ValueError):
    """Input is not a structurally valid arc presentation."""


class InternalVerificationError(RuntimeError):
    """An exact self-check that should never fail did fail."""
