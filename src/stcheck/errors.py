"""Exception hierarchy shared by the whole package."""


class StcheckError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(StcheckError):
    """Malformed concrete syntax. Carries a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class NotContractiveError(StcheckError):
    """A recursion binder cycles back to itself through nothing but binders."""


class DuplicateLabelError(StcheckError):
    """A selection or branching construct repeats a label."""


class EmptyArityError(StcheckError):
    """An input/output payload list or a label map is empty."""


class OpenTypeError(StcheckError):
    """An operation that requires a closed type was given one with free
    variables."""


class DeadlineExceeded(StcheckError):
    """A check's deadline passed before the search reached a verdict."""

    def __init__(self, message: str = "deadline passed before a verdict"):
        super().__init__(message)
