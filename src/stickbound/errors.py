"""Shared exception types."""


class InvalidArcPresentation(ValueError):
    """Input is not a structurally valid arc presentation."""


class InvalidSetting(ValueError):
    """An environment setting holds a value the program cannot use."""


class InternalVerificationError(RuntimeError):
    """An exact self-check that should never fail did fail."""
