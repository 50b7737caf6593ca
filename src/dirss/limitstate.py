"""Limit-state functions, evaluation accounting, and benchmark problems.

A limit-state function g maps a point of standard-Gaussian space to a
scalar; failure is the event g <= 0. Evaluators are vectorized, taking
an (N, n) array of points and returning an (N,) array of values. All
counted evaluations go through :func:`evaluate_batch` so that the
reported cost of a run equals the number of g-calls exactly, and so
that g raising, or returning values of the wrong shape or non-finite
values, surfaces as an :class:`EvaluationError` that names the problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import ConfigurationError, EvaluationError, check_count


@dataclass(frozen=True)
class LimitState:
    """An evaluatable performance function g: R^n -> R.

    ``evaluator`` must be deterministic and accept an (N, n) array, and
    ``evaluator(points)[k]`` must depend only on ``points[k]``: one call
    may serve several runs of a batch at once (``replicate`` joins the
    points that its runs need evaluated), and each run still counts only
    its own points in ``n_evals``.
    """

    name: str
    dimension: int
    evaluator: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        check_count(self.dimension, "dimension")


@dataclass
class EvalCounter:
    """Running count of limit-state evaluations within one run."""

    count: int = 0

    def add(self, k: int = 1) -> None:
        if k < 0:
            raise ValueError("cannot decrement an evaluation counter")
        self.count += k


def evaluate_batch(ls: LimitState, points: np.ndarray, ctr: EvalCounter) -> np.ndarray:
    """Evaluate g at each row of ``points``, incrementing the counter by the row count.

    Raises :class:`EvaluationError` if g raises, or returns anything but
    one finite real value (of an integer or float dtype) per point.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != ls.dimension:
        raise ConfigurationError(
            f"points of shape {pts.shape} do not match problem dimension {ls.dimension}"
        )
    ctr.add(pts.shape[0])
    try:
        gv = np.asarray(ls.evaluator(pts))
    except Exception as exc:  # any failure of user code is a failure of this run
        raise EvaluationError(
            f"g of problem {ls.name!r} raised {type(exc).__name__}: {exc}", ctr.count
        ) from exc
    if gv.dtype.kind not in "iuf":  # not bool, complex or object
        raise EvaluationError(f"g of problem {ls.name!r} returned values of dtype {gv.dtype}, "
                              "expected integer or float", ctr.count)
    gv = gv.astype(float, copy=False)
    n = pts.shape[0]
    if gv.shape != (n,):
        raise EvaluationError(
            f"g of problem {ls.name!r} returned shape {gv.shape} for {n} points, "
            f"expected ({n},)",
            ctr.count,
        )
    if not np.isfinite(gv).all():
        bad = int(n - np.isfinite(gv).sum())
        raise EvaluationError(
            f"g of problem {ls.name!r} returned {bad} non-finite values (NaN or inf) "
            f"among {n} points",
            ctr.count,
        )
    return gv


def _piecewise_linear_g(pts: np.ndarray) -> np.ndarray:
    t1, t2 = pts[:, 0], pts[:, 1]
    # the <= branch applies at the breakpoints; both pieces agree there
    g1 = np.where(t1 > 3.5, 4.0 - t1, 0.85 - 0.1 * t1)
    g2 = np.where(t2 > 2.0, 0.5 - 0.1 * t2, 2.3 - t2)
    return np.minimum(g1, g2)


def make_piecewise_linear() -> LimitState:
    """Two-dimensional series system g = min(g1, g2) of piecewise-linear margins.

    The dominant failure mode is the half-plane beyond (4, 0); a much
    smaller secondary mode sits beyond (0, 5), but the margin decreases
    steeply toward it near the origin, which makes the problem a hard
    multi-modal test case for level-based samplers.
    """
    return LimitState("piecewise_linear", 2, _piecewise_linear_g)


def make_beta_points() -> LimitState:
    """Two-dimensional problem g = 12 - |t1*t2| with four symmetric failure modes."""
    return LimitState(
        "beta_points", 2, lambda pts: 12.0 - np.abs(pts[:, 0] * pts[:, 1])
    )


def make_linear(beta: float, dimension: int = 1, name: str | None = None) -> LimitState:
    """g = beta - t1, whose failure probability is exactly Phi(-beta)."""
    return LimitState(
        name or f"linear_beta_{beta:g}", dimension, lambda pts: beta - pts[:, 0]
    )


def make_constant(value: float, dimension: int = 2, name: str | None = None) -> LimitState:
    """g identically equal to ``value``; fails everywhere iff value <= 0."""
    return LimitState(
        name or f"constant_{value:g}",
        dimension,
        lambda pts: np.full(pts.shape[0], float(value)),
    )


_REGISTRY: dict[str, Callable[[], LimitState]] = {}


def register_problem(name: str, factory: Callable[[], LimitState]) -> None:
    """Make a problem available by name (e.g. to the command line)."""
    _REGISTRY[name] = factory


def problem_factory(name: str) -> Callable[[], LimitState]:
    """The factory registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(f"unknown problem {name!r} (known: {known})") from None


def get_problem(name: str) -> LimitState:
    """Look up a registered problem by name."""
    return problem_factory(name)()


register_problem("piecewise_linear", make_piecewise_linear)
register_problem("beta_points", make_beta_points)
register_problem("always_fail", partial(make_constant, -1.0, name="always_fail"))
register_problem("never_fail", partial(make_constant, 1.0, name="never_fail"))
