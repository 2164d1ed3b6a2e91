"""Exception types shared across the package.

Input and configuration problems derive from ValueError; failures of the
numerical contracts derive from ArithmeticError so callers (and the CLI)
can map the two groups to distinct exit codes.
"""


class InputError(ValueError):
    """Malformed or out-of-range input data."""


class ConfigurationError(ValueError):
    """A requested setting is outside what the pipeline supports."""


class NumericalError(ArithmeticError):
    """Base class for violations of the numerical contracts.

    ``table`` is the stack index of the table that failed, when a batch kernel raised it.
    """

    def __init__(self, message: str = "", table: int | None = None):
        super().__init__(message)
        self.table = table


class ZeroCellError(NumericalError):
    """A posterior cell is zero where a formula divides by it."""


class InfeasibleFitError(NumericalError):
    """The requested moment pair cannot be matched by the chosen family."""


class UndefinedFillError(NumericalError):
    """Unlabeled mass cannot be spread over a row that was never observed."""


class InsufficientDataError(NumericalError):
    """Too few samples fall inside the requested estimation window."""
