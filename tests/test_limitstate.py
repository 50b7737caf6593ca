from __future__ import annotations

import numpy as np
import pytest

from dirss import (
    ConfigurationError,
    EvaluationError,
    LimitState,
    RandomStream,
    evaluate_batch,
    get_problem,
    make_beta_points,
    make_constant,
    make_linear,
    make_piecewise_linear,
    register_problem,
)


@pytest.mark.parametrize(
    "point,expected",
    [
        ((4.0, 0.0), 0.0),  # global design point
        ((0.0, 0.0), 0.85),
        ((3.5, 0.0), 0.5),  # breakpoint of the first margin
        ((0.0, 5.0), 0.0),  # boundary of the secondary mode
        ((6.0, 0.0), -2.0),
        ((0.0, 2.0), 0.3),  # breakpoint of the second margin
    ],
)
def test_piecewise_linear_values(point, expected):
    ls = make_piecewise_linear()
    got = evaluate_batch(ls, np.array(point)[None])[0]
    assert got == pytest.approx(expected, abs=1e-12)


def test_piecewise_linear_breakpoint_continuity():
    # both closed-form pieces agree at their breakpoints
    assert abs((4.0 - 3.5) - (0.85 - 0.1 * 3.5)) < 1e-12
    assert abs((0.5 - 0.1 * 2.0) - (2.3 - 2.0)) < 1e-12


@pytest.mark.parametrize(
    "point,expected",
    [((0.0, 0.0), 12.0), ((4.0, 3.0), 0.0), ((-4.0, -3.0), 0.0), ((1.0, 1.0), 11.0)],
)
def test_beta_points_values(point, expected):
    ls = make_beta_points()
    assert evaluate_batch(ls, np.array(point)[None])[0] == pytest.approx(expected)


def test_beta_points_sign_symmetry():
    ls = make_beta_points()
    pts = RandomStream(3).standard_normal((200, 2))
    base = evaluate_batch(ls, pts)
    for sx, sy in [(1, -1), (-1, 1), (-1, -1)]:
        flipped = pts * np.array([sx, sy])
        np.testing.assert_allclose(evaluate_batch(ls, flipped), base, atol=1e-12)


def test_evaluator_deterministic():
    ls = make_piecewise_linear()
    p = np.array([0.3, -1.2])
    assert evaluate_batch(ls, p[None])[0] == evaluate_batch(ls, p[None])[0]


def test_dimension_mismatch_is_configuration_error():
    ls = make_piecewise_linear()
    with pytest.raises(ConfigurationError):
        evaluate_batch(ls, np.zeros(3)[None])
    with pytest.raises(ConfigurationError):
        evaluate_batch(ls, np.zeros((4, 1)))


def test_linear_problem_value():
    ls = make_linear(2.5)
    assert evaluate_batch(ls, np.array([1.0])[None])[0] == pytest.approx(1.5)
    for make, dimension in [(make_linear, 0), (make_linear, 2.5), (make_constant, 0)]:
        with pytest.raises(ConfigurationError, match="at least 1"):
            make(2.5, dimension)


def test_registry_lookup():
    assert get_problem("piecewise_linear").name == "piecewise_linear"
    assert get_problem("beta_points").dimension == 2


def test_registry_unknown_name():
    with pytest.raises(ConfigurationError, match="unknown problem"):
        get_problem("nonexistent")


def test_registry_user_extension():
    register_problem("custom_margin", lambda: make_linear(3.0, name="custom_margin"))
    try:
        ls = get_problem("custom_margin")
        assert ls.name == "custom_margin"
    finally:
        from dirss import limitstate

        limitstate._REGISTRY.pop("custom_margin", None)


def test_builtin_trivial_problems():
    assert evaluate_batch(get_problem("always_fail"), np.zeros((3, 2))).max() == -1.0
    assert evaluate_batch(get_problem("never_fail"), np.zeros((3, 2))).min() == 1.0


def _raises(pts):
    raise RuntimeError("solver diverged")


@pytest.mark.parametrize(
    "evaluator,fault",
    [
        (lambda pts: np.ones((pts.shape[0], 1)), "shape (5, 1) for 5 points"),
        (lambda pts: np.full(pts.shape[0], np.nan), "5 non-finite values"),
        (lambda pts: np.where(pts[:, 0] > 0, np.inf, 1.0), "2 non-finite values"),
        (_raises, "raised RuntimeError: solver diverged"),
        (lambda pts: pts[:, 0] > 0, "values of dtype bool"),
        (lambda pts: 3.0 - pts[:, 0] + 1j, "values of dtype complex128"),
    ],
)
def test_bad_g_output_is_evaluation_error(evaluator, fault):
    ls = LimitState("bad_g", 2, evaluator)
    pts = np.zeros((5, 2))
    pts[:2, 0] = 1.0
    with pytest.raises(EvaluationError) as exc:
        evaluate_batch(ls, pts)
    assert "'bad_g'" in str(exc.value) and fault in str(exc.value)
    assert exc.value.n_evals == 5  # the batch's points
    assert not isinstance(exc.value, ConfigurationError)
    with pytest.raises(EvaluationError):
        evaluate_batch(ls, np.ones(2)[None])
