"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A problem, partition, or run configuration is invalid."""


class EvaluationError(RuntimeError):
    """The limit-state function raised, or returned values of the wrong
    shape or non-finite values.

    ``n_evals`` is the run's evaluation count when it happened, the
    failing batch included.
    """

    def __init__(self, message: str, n_evals: int = 0):
        super().__init__(message)
        self.n_evals = n_evals
