"""Exception types shared across the package: each is an InputError (CLI exit 2)."""


class InputError(ValueError):
    """An argument violates a documented precondition."""


class CapacityError(InputError):
    """An input exceeds a documented size limit."""


class HypothesisError(InputError):
    """An order or graph fails a theorem hypothesis (odd, too small, disconnected)."""

    def __init__(self, reason: str, message: str | None = None):
        super().__init__(message or reason)
        self.reason = reason


class Graph6ParseError(InputError):
    """A graph6 line is malformed; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class NumericalError(CapacityError):
    """An order is too large for float arithmetic to certify a result."""


class SamplingError(InputError):
    """Rejection sampling exhausted its attempt budget."""
