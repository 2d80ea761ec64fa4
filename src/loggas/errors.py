"""Shared exception types for the log-gas laboratory."""


class DegenerateConfigError(ValueError):
    """Two particles coincide, so the logarithmic energy is infinite."""


class BracketError(ValueError):
    """The grid bracket is too small: an end node carries equilibrium mass."""


class ConvergenceError(RuntimeError):
    """An iterative solve stopped before reaching its tolerance.

    Carries the last residual so callers can decide whether the partial
    answer is still usable.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
