"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Raised when a config, spec, or run file is invalid or inconsistent."""


class SolverError(RuntimeError):
    """Raised when an iterative solve fails to reach the requested residual."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class CheckFailure(AssertionError):
    """Raised by `run --check` when a gated criterion is violated."""
