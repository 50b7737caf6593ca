"""Lockstep replicate: runs of a group share g-calls, yet each run's result
equals the one it gets alone, field by field and byte by byte."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dirss import (
    EvaluationError,
    ExperimentConfig,
    LimitState,
    RandomStream,
    get_problem,
    limitstate,
    make_linear,
    make_piecewise_linear,
    register_problem,
    replicate,
    run_single,
    run_ss,
)
from dirss.harness import group_size

CASE1 = (-math.pi + 0.8, 0.8)
SLIVER = (-math.pi + 0.8, 0.75, 0.8)  # a 0.05 rad bin that starves at small n


def _rare(pts: np.ndarray, rate: float) -> np.ndarray:
    """A fixed, point-wise pseudo-random subset of the points, about ``rate`` of them."""
    return np.modf(np.abs(pts[:, 0]) * 1e4)[0] < rate


def _faulty(mode: str, rate: float = 2e-4) -> LimitState:
    """piecewise_linear, except that g faults on the points that ``_rare`` picks."""
    base = make_piecewise_linear()

    def g(pts):
        gv = base.evaluator(pts)
        bad = _rare(pts, rate)
        if bad.any():
            if mode == "raise":
                raise RuntimeError("solver diverged")
            if mode == "shape":
                return gv[:, None]
            gv[bad] = np.nan
        return gv

    return LimitState(f"faulty_{mode}", 2, g)


class _Calls:
    """Sizes of the calls made into an evaluator."""

    def __init__(self):
        self.sizes: list[int] = []

    def wrap(self, ls: LimitState) -> LimitState:
        def g(pts):
            self.sizes.append(pts.shape[0])
            return ls.evaluator(pts)

        return dataclasses.replace(ls, evaluator=g)


@pytest.fixture(autouse=True, scope="module")
def _problems():
    names = {f"faulty_{m}": (lambda m=m: _faulty(m)) for m in ("nan", "raise", "shape")}
    names["linear_d10"] = lambda: make_linear(3.0, 10, "linear_d10")
    for name, make in names.items():
        register_problem(name, make)
    yield
    for name in names:
        limitstate._REGISTRY.pop(name, None)


def _fields(res) -> tuple:
    """Every field of a RunResult; floats by repr (so bit for bit), points as bytes."""
    fp = res.failure_points
    rest = {f.name: getattr(res, f.name) for f in dataclasses.fields(res)}
    del rest["failure_points"]
    return repr(rest), fp.shape, fp.dtype.str, fp.tobytes()


def _assert_matches_solo(cfg: ExperimentConfig, results) -> None:
    assert len(results) == cfg.runs
    for i, res in enumerate(results):
        assert _fields(res) == _fields(run_single(cfg, i)), f"run {i}"


def test_group_size_rule():
    cfg = ExperimentConfig("piecewise_linear", "dss", 500)
    assert group_size(cfg, 2) == 65
    assert group_size(dataclasses.replace(cfg, n=20000), 10) == 1
    assert group_size(dataclasses.replace(cfg, n=3000), 10) == 2


def test_one_g_call_serves_a_group(monkeypatch):
    calls = _Calls()
    monkeypatch.setattr("dirss.harness.get_problem", lambda name: calls.wrap(
        limitstate.get_problem(name)))
    cfg = ExperimentConfig("piecewise_linear", "ss", 100, runs=4, seed=5)
    results = replicate(cfg)
    assert calls.sizes[0] == 4 * cfg.n  # the four runs' level-0 draws in one call
    assert sum(calls.sizes) == sum(r.n_evals for r in results)
    solo = _Calls()
    monkeypatch.setattr("dirss.harness.get_problem", lambda name: solo.wrap(
        limitstate.get_problem(name)))
    for i in range(cfg.runs):
        run_single(cfg, i)
    assert len(calls.sizes) < len(solo.sizes) / 2


@pytest.mark.parametrize("n, sizes", [(6600, [6600] * 3), (3000, [6000, 3000])])
def test_large_populations_run_in_small_groups(monkeypatch, n, sizes):
    # n * dim = 66000 > 2**16 leaves every run alone; 30000 pairs them
    calls = _Calls()
    monkeypatch.setattr("dirss.harness.get_problem", lambda name: calls.wrap(
        limitstate.get_problem(name)))
    cfg = ExperimentConfig("linear_d10", "mcs", n, runs=3, seed=2)
    results = replicate(cfg)
    assert calls.sizes == sizes
    _assert_matches_solo(cfg, results)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("mode, fault", [
    ("nan", "non-finite"), ("raise", "RuntimeError: solver diverged"), ("shape", "shape (")
])
def test_faults_fail_only_the_runs_at_fault(mode, fault, jobs):
    cfg = ExperimentConfig(f"faulty_{mode}", "ss", 100, runs=12, seed=6)
    assert group_size(cfg, 2) >= cfg.runs
    results = replicate(cfg, jobs=jobs)
    clean = replicate(dataclasses.replace(cfg, problem="piecewise_linear"))
    failed = [i for i, r in enumerate(results) if r.status == "failed"]
    assert 0 < len(failed) < cfg.runs
    for i, (res, ref) in enumerate(zip(results, clean)):
        solo = run_single(cfg, i)
        if i in failed:
            # the error the estimator raises when it runs alone
            with pytest.raises(EvaluationError) as exc:
                run_ss(get_problem(cfg.problem), cfg.n, stream=RandomStream(cfg.seed, i))
            assert (res.reason, res.n_evals) == (str(exc.value), exc.value.n_evals)
            assert f"'faulty_{mode}'" in res.reason and fault in res.reason
            assert res.n_evals <= ref.n_evals
        else:
            # g never faulted on this run's points: same bytes as with a clean g
            assert _fields(res) == _fields(ref)
        assert _fields(res) == _fields(solo)


@pytest.mark.filterwarnings("ignore:bin with probability")
def test_mixed_group_matches_solo_runs():
    # one group of 12 dss runs: some converge, some hit max_levels, some
    # starve a bin, some fail on a NaN from g
    cfg = ExperimentConfig(
        "faulty_nan", "dss", 60, partition="angular", cuts=SLIVER,
        max_levels=9, runs=12, seed=8,
    )
    results = replicate(cfg)
    statuses = {r.status for r in results}
    assert statuses == {"converged", "max_levels", "failed"}
    assert any(o.status == "starved" for r in results for o in r.bin_outcomes)
    _assert_matches_solo(cfg, results)
    assert [_fields(r) for r in replicate(cfg, jobs=2)] == [_fields(r) for r in results]


_PARTITIONS = st.sampled_from([
    {"partition": "single"},
    {"partition": "angular", "cuts": CASE1},
    {"partition": "angular", "cuts": SLIVER},
    {"partition": "halfspace", "axis": 2},
    {"partition": "orthants"},
])


@st.composite
def _configs(draw):
    algorithm = draw(st.sampled_from(["mcs", "ss", "dss"]))
    part = draw(_PARTITIONS) if algorithm == "dss" else {}
    return ExperimentConfig(
        problem=draw(st.sampled_from(["piecewise_linear", "beta_points", "faulty_nan"])),
        algorithm=algorithm,
        n=draw(st.integers(20, 2000 if algorithm == "mcs" else 120)),
        rho=draw(st.sampled_from([0.1, 0.2, 0.3, 0.5])),
        max_levels=draw(st.integers(1, 10)),
        runs=draw(st.integers(1, 7)),
        seed=draw(st.integers(0, 2**32)),
        **part,
    )


@pytest.mark.filterwarnings("ignore:bin with probability")
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_configs())
def test_replicate_equals_solo_runs(cfg):
    _assert_matches_solo(cfg, replicate(cfg))
