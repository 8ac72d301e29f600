"""Exception types shared across the package."""


class ChaocryptError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(ChaocryptError):
    """An argument violates a documented precondition."""


class FormatError(ChaocryptError):
    """A file does not conform to its on-disk format."""


class NumericalError(ChaocryptError):
    """A computation produced non-finite or degenerate values."""
