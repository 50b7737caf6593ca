"""Exception types shared across the package, and its two input rules:
:func:`check_count` for counts, :func:`check_open_interval` for rho,
mcmc corr, eps_tol and reference probabilities."""

from numbers import Integral, Real


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


def check_count(value, name: str, least: int = 1, most: int | None = None,
                unit: str = "") -> None:
    """Raise ConfigurationError unless ``value`` is an integer (Python or numpy;
    a bool is not one) from ``least`` up to ``most``; ``unit`` ends the message's
    lower bound, as in "at least 2 samples"."""
    if (not isinstance(value, Integral) or isinstance(value, bool) or value < least
            or most is not None and value > most):
        span = f"of at least {least}{unit}" if most is None else f"from {least} to {most}"
        raise ConfigurationError(f"{name}={value!r} must be an integer {span}")


def check_open_interval(value, name: str, high: float = 1.0) -> None:
    """Raise ConfigurationError unless ``value`` is a real number (a bool is not
    one) in the open interval (0, ``high``)."""
    if not isinstance(value, Real) or isinstance(value, bool) or not 0.0 < value < high:
        raise ConfigurationError(f"{name} must lie in (0, {high:g}), got {value!r}")
