"""Invariants of SS and dSS runs through ``replicate``, over random problems,
partitions, population sizes, level probabilities and batch sizes."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dirss import (
    ExperimentConfig,
    LimitState,
    limitstate,
    make_linear,
    make_piecewise_linear,
    register_problem,
    replicate,
    run_single,
)
from dirss.harness import build_partition, build_problem, group_size

CASE1 = (-math.pi + 0.8, 0.8)
SLIVER = (-math.pi + 0.8, 0.75, 0.8)  # a 0.05 rad bin that starves at small n

# partitions by problem dimension
_PARTITIONS = {
    2: [
        {"partition": "angular", "cuts": CASE1},
        {"partition": "angular", "cuts": SLIVER},
        {"partition": "halfspace", "axis": 2},
        {"partition": "orthants"},
    ],
    3: [{"partition": "halfspace", "axis": 1}, {"partition": "orthants"}],
}
_PROBLEMS = {"piecewise_linear": 2, "beta_points": 2, "invariants_linear_d3": 3}


class _Points:
    """Points and calls that the problems' evaluators see."""

    def __init__(self):
        self.count = self.calls = 0

    def wrap(self, ls: LimitState) -> LimitState:
        def g(pts):
            self.count += pts.shape[0]
            self.calls += 1
            return ls.evaluator(pts)

        return dataclasses.replace(ls, evaluator=g)


def _faulty_nan() -> LimitState:
    """piecewise_linear, except that g returns NaN at a fixed 2e-4 of the points."""
    base = make_piecewise_linear()

    def g(pts):
        gv = base.evaluator(pts)
        gv[np.modf(np.abs(pts[:, 0]) * 1e4)[0] < 2e-4] = np.nan
        return gv

    return LimitState("invariants_faulty_nan", 2, g)


@pytest.fixture(autouse=True, scope="module")
def _problems():
    register_problem("invariants_linear_d3", lambda: make_linear(2.5, 3, "invariants_linear_d3"))
    register_problem("invariants_faulty_nan", _faulty_nan)
    yield
    for name in ("invariants_linear_d3", "invariants_faulty_nan"):
        limitstate._REGISTRY.pop(name, None)


@st.composite
def _configs(draw):
    problem = draw(st.sampled_from(sorted(_PROBLEMS)))
    algorithm = draw(st.sampled_from(["dss", "ss"]))
    partitions = _PARTITIONS[_PROBLEMS[problem]] if algorithm == "dss" else [{}]  # SS: single
    return ExperimentConfig(
        problem=problem,
        algorithm=algorithm,
        n=draw(st.integers(20, 300)),
        rho=draw(st.sampled_from([0.1, 0.2, 0.3, 0.5])),
        max_levels=draw(st.integers(1, 12)),
        runs=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**32)),
        **draw(st.sampled_from(partitions)),
    )


@pytest.mark.filterwarnings("ignore:bin with probability")
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_configs())
def test_dss_invariants(cfg):
    seen = _Points()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("dirss.harness.get_problem", lambda name: seen.wrap(
            limitstate.get_problem(name)))
        results = replicate(cfg)
    p0 = build_partition(cfg, build_problem(cfg).dimension).probs
    assert sum(r.n_evals for r in results) == seen.count
    for res in results:
        assert res.levels == len(res.level_records)
        # dSS still runs one level past max_levels; making it stop at the cap, as SS
        # does, changes its results and is left to a change of its own
        if cfg.algorithm == "ss":
            assert res.levels <= cfg.max_levels
        for rec in res.level_records:
            assert sum(rec.counts) == cfg.n
        for j in range(p0.size):
            gamma = [rec.gamma[j] for rec in res.level_records]
            assert all(a >= b for a, b in zip(gamma, gamma[1:])), f"bin {j}: {gamma}"
        finished = [o for o in res.bin_outcomes if o.status == "finished"]
        for o in finished:
            assert o.pi_hat == float(p0[o.bin]) * cfg.rho**o.level * o.p_final
        assert res.pf_hat == sum(o.pi_hat for o in finished)
        assert res.unresolved_bound == sum(o.bound for o in res.bin_outcomes)


@pytest.mark.filterwarnings("ignore:bin with probability")
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_configs(), runs=st.integers(2, 7))
def test_group_g_calls_are_the_largest_solo_count(cfg, runs):
    # a run's g-calls fall on the group's steps in the order it makes them alone,
    # so with a g that never faults a group makes the largest solo count: the
    # size of a group is the only lever on g-calls
    cfg = dataclasses.replace(cfg, runs=runs)
    group, solo = _Points(), []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("dirss.harness.get_problem", lambda name: group.wrap(
            limitstate.get_problem(name)))
        replicate(cfg)
        for i in range(runs):
            solo.append(_Points())
            mp.setattr("dirss.harness.get_problem", lambda name: solo[-1].wrap(
                limitstate.get_problem(name)))
            run_single(cfg, i)
    assert group_size(cfg, build_problem(cfg).dimension) >= runs
    assert group.calls == max(s.calls for s in solo)


# Fails until a run is charged its points of a shared g-call that faults: the
# call is repeated run by run (kernels.evaluate_joined) and the first pass is
# counted in no run's n_evals (CHANGES.md, the FOUND entry on
# `kernels._Lockstep.evaluate`'s uncounted first pass; ROADMAP item 4).
@pytest.mark.xfail(strict=True, reason="a faulted shared g-call is counted in no run")
@pytest.mark.parametrize("cfg", [
    ExperimentConfig("invariants_faulty_nan", "ss", 100, runs=12, seed=6),
    ExperimentConfig("invariants_faulty_nan", "mcs", 3000, runs=4, seed=0),
], ids=["ss", "mcs"])
def test_g_sees_the_points_the_runs_count_when_g_faults(cfg):
    seen = _Points()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("dirss.harness.get_problem", lambda name: seen.wrap(
            limitstate.get_problem(name)))
        results = replicate(cfg)
    assert 0 < sum(r.status == "failed" for r in results) < cfg.runs
    assert sum(r.n_evals for r in results) == seen.count
