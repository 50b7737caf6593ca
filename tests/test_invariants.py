"""Invariants of dSS runs through ``replicate``, over random problems, partitions,
population sizes, level probabilities and batch sizes."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dirss import ExperimentConfig, LimitState, limitstate, make_linear, register_problem, replicate
from dirss.harness import build_partition, build_problem

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
    """Points that the problems' evaluators see."""

    def __init__(self):
        self.count = 0

    def wrap(self, ls: LimitState) -> LimitState:
        def g(pts):
            self.count += pts.shape[0]
            return ls.evaluator(pts)

        return dataclasses.replace(ls, evaluator=g)


@pytest.fixture(autouse=True, scope="module")
def _problems():
    register_problem("invariants_linear_d3", lambda: make_linear(2.5, 3, "invariants_linear_d3"))
    yield
    limitstate._REGISTRY.pop("invariants_linear_d3", None)


@st.composite
def _configs(draw):
    problem = draw(st.sampled_from(sorted(_PROBLEMS)))
    return ExperimentConfig(
        problem=problem,
        algorithm="dss",
        n=draw(st.integers(20, 300)),
        rho=draw(st.sampled_from([0.1, 0.2, 0.3, 0.5])),
        max_levels=draw(st.integers(1, 12)),
        runs=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**32)),
        **draw(st.sampled_from(_PARTITIONS[_PROBLEMS[problem]])),
    )


@pytest.mark.filterwarnings("ignore:bin with probability")
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
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
