"""Exception types shared across the package."""


class QuivalgError(Exception):
    """Base class for all package-specific errors."""


class IncomposableError(QuivalgError):
    """Raised when two paths are composed but endpoints do not match."""


class MalformedRelationError(QuivalgError):
    """Relation outside the square of the arrow ideal or not vertex-homogeneous."""


class NotFiniteDimensionalError(QuivalgError):
    """The quotient dimension failed to stabilize below the length cap."""


class DimensionMismatchError(QuivalgError):
    """A dimension disagrees with the required one: a presented algebra's
    with its reference, or End(M)/rad's with one per summand of M."""


class DecompositionInconclusiveError(QuivalgError):
    """Idempotent splitting met a corner that its basis and the fixed
    combinations of it (endos.MAX_SPLIT_ATTEMPTS) neither split nor
    certified primitive."""


class ParseError(QuivalgError):
    """Text input rejected; carries 1-based line and column positions."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class IncompletePresentationWarning(UserWarning):
    """The path search hit its length cap before closing multiplicatively."""
