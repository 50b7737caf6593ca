from __future__ import annotations

import dataclasses
import concurrent.futures
import math
import multiprocessing
import os
import random
import subprocess
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dirss import (
    ConfigurationError,
    ExperimentConfig,
    LimitState,
    limitstate,
    RandomStream,
    get_problem,
    make_linear,
    register_problem,
    reference_probability,
    replicate,
    run_mcs,
    summarize,
    validate_config,
)
from dirss.estimators import BinOutcome, RunResult


def _fake_result(pf: float, status: str = "converged", n_evals: int = 100) -> RunResult:
    outcome = BinOutcome(0, "finished", 0, pf, pf, 0.0)
    return RunResult(
        algorithm="ss",
        pf_hat=pf,
        bin_outcomes=(outcome,),
        levels=1,
        n_evals=n_evals,
        unresolved_bound=0.0,
        status=status,
        level_records=(),
        failure_points=np.empty((0, 2)),
    )


SS_CFG = ExperimentConfig(problem="piecewise_linear", algorithm="ss", n=250, runs=3, seed=11)


def test_replicate_is_deterministic():
    a = replicate(SS_CFG)
    b = replicate(SS_CFG)
    assert [r.pf_hat for r in a] == [r.pf_hat for r in b]
    assert [r.n_evals for r in a] == [r.n_evals for r in b]


@pytest.mark.jobs
def test_replicate_parallel_matches_sequential():
    a = replicate(SS_CFG)
    b = replicate(SS_CFG, jobs=3)
    assert [r.pf_hat for r in a] == [r.pf_hat for r in b]


class _InlinePool:
    """A ProcessPoolExecutor stand-in that starts no process: it records its size,
    runs the initializer and maps in this process."""

    sizes: list = []

    def __init__(self, max_workers, mp_context=None, initializer=None, initargs=()):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.jobs
def test_replicate_starts_no_more_workers_than_groups(monkeypatch):
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    # a built-in problem, whose factory pickles under any start method
    three = replicate(SS_CFG, jobs=8)
    assert _InlinePool.sizes == [3]  # one group a run, one worker a group
    one = dataclasses.replace(SS_CFG, runs=1)
    alone = replicate(one, jobs=4)
    assert _InlinePool.sizes == [3]  # a single group runs in this process
    for batch, ref in ((three, replicate(SS_CFG)), (alone, replicate(one))):
        for a, b in zip(batch, ref, strict=True):
            for f in dataclasses.fields(RunResult):
                x, y = getattr(a, f.name), getattr(b, f.name)
                assert x.tobytes() == y.tobytes() if f.name == "failure_points" else x == y


def test_import_leaves_the_process_pool_stack_unloaded():
    code = ("import sys, dirss, dirss.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_replicate_streams_by_run_index():
    results = replicate(SS_CFG)
    solo = replicate(ExperimentConfig(**{**SS_CFG.__dict__, "runs": 1}))
    assert solo[0].pf_hat == results[0].pf_hat


def test_replicate_rejects_zero_runs():
    cfg = ExperimentConfig(problem="always_fail", algorithm="mcs", n=10, runs=2)
    with pytest.raises(ConfigurationError):
        replicate(dataclasses.replace(cfg, runs=0))
    for jobs in (0, -3, 2.5, True):
        with pytest.raises(ConfigurationError, match="jobs"):
            replicate(cfg, jobs=jobs)


def test_config_validation_rejects_bad_values():
    base = dict(problem="piecewise_linear", algorithm="ss", n=100)
    with pytest.raises(ConfigurationError):
        validate_config(ExperimentConfig(**{**base, "algorithm": "sorm"}))
    with pytest.raises(ConfigurationError):
        validate_config(ExperimentConfig(**{**base, "rho": 0.0}))
    with pytest.raises(ConfigurationError):
        validate_config(ExperimentConfig(**{**base, "mcmc_corr": 1.0}))
    for eps_tol in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            validate_config(ExperimentConfig(**{**base, "eps_tol": eps_tol}))
    for n, algorithm in [(1, "ss"), (True, "mcs")]:  # a bool is not a count
        with pytest.raises(ConfigurationError):
            validate_config(ExperimentConfig(**{**base, "n": n, "algorithm": algorithm}))
    for key, value, message in [("max_levels", 0, "max_levels"), ("max_levels", 4.5, "max_levels"),
                                ("n", 100.0, "n=100.0"), ("runs", 2.0, "runs"),
                                ("max_levels", True, "max_levels"), ("runs", True, "runs"),
                                ("seed", True, "seed"), ("rho", "0.2", "rho")]:
        with pytest.raises(ConfigurationError, match=message):
            validate_config(ExperimentConfig(**{**base, key: value}))
    with pytest.raises(ConfigurationError):
        validate_config(ExperimentConfig(**{**base, "problem": "unknown_thing"}))
    # a partition key that the dss partition does not use is not dropped
    dss = {**base, "algorithm": "dss", "n": 200}
    for keys, message in [
        ({"partition": "orthants", "cuts": (-2.34, 0.8), "axis": 1}, "'cuts' applies"),
        ({"partition": "orthants", "axis": 1}, "'axis' applies"),
        ({"partition": "halfspace", "axis": 1, "cuts": (-2.34, 0.8)}, "'cuts' applies"),
        ({"partition": "angular", "cuts": (-2.34, 0.8), "axis": 2}, "'axis' applies"),
        ({"partition": "single", "cuts": (-2.34, 0.8)}, "'cuts' applies"),
        # an axis that is no integer fails here, not in classify after the first runs
        ({"partition": "halfspace", "axis": 1.5}, "axis=1.5"),
        ({"partition": "halfspace", "axis": True}, "axis=True"),
    ]:
        with pytest.raises(ConfigurationError, match=message):
            validate_config(ExperimentConfig(**{**dss, **keys}))
    # SS and MCS use no partition: their configs may carry dSS keys
    for algorithm in ("ss", "mcs"):
        validate_config(ExperimentConfig(**{**base, "algorithm": algorithm,
                                            "partition": "orthants", "cuts": (-2.34, 0.8)}))


def test_config_warns_on_likely_starvation():
    cfg = ExperimentConfig(
        problem="piecewise_linear", algorithm="dss", n=20, partition="orthants"
    )
    with pytest.warns(UserWarning, match="starve"):
        validate_config(cfg)


def test_summarize_exact_cases():
    ref = 2.0e-5
    same = [_fake_result(ref) for _ in range(4)]
    s = summarize(same, ref)
    assert s.r_metric == pytest.approx(0.0, abs=1e-15)
    assert s.cov == pytest.approx(0.0, abs=1e-15)
    assert s.mean_pf == pytest.approx(ref)

    s = summarize([_fake_result(10 * ref)], ref)
    assert s.r_metric == pytest.approx(1.0, abs=1e-12)

    s = summarize([_fake_result(ref / 100), _fake_result(ref)], ref)
    assert s.r_metric == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_summarize_excludes_failed_and_zero_runs():
    ref = 1e-4
    results = [
        _fake_result(1e-4, n_evals=100),
        _fake_result(0.0, n_evals=50),
        _fake_result(2e-4, status="failed", n_evals=30),
        _fake_result(0.0, status="failed", n_evals=20),
    ]
    s = summarize(results, ref)
    assert s.runs_used == 1
    assert s.failed_runs == 2  # by status, whatever the estimate
    assert s.zero_runs == 1
    assert s.mean_pf == pytest.approx(1e-4)
    # cost averages over every run regardless of outcome
    assert s.mean_evals == pytest.approx((100 + 50 + 30 + 20) / 4)


def test_summarize_counts_max_levels_runs():
    # counted by status alone; with a positive estimate they still enter
    # the statistics
    ref = 1e-4
    results = [
        _fake_result(1e-4),
        _fake_result(3e-4, status="max_levels"),
        _fake_result(0.0, status="max_levels"),
        _fake_result(2e-4, status="failed"),
    ]
    s = summarize(results, ref)
    assert (s.max_levels_runs, s.runs_used, s.failed_runs, s.zero_runs) == (2, 2, 1, 1)
    assert s.mean_pf == pytest.approx(2e-4)
    # rows read back from runs.csv carry only these fields
    rows = [SimpleNamespace(pf_hat=r.pf_hat, n_evals=r.n_evals, status=r.status,
                            bin_outcomes=[SimpleNamespace(pi_hat=r.pf_hat)]) for r in results]
    assert summarize(rows, ref) == s
    assert summarize([_fake_result(0.0, status="max_levels")], ref).max_levels_runs == 1


def test_summarize_without_usable_runs_reports_nan():
    # no usable run is an outcome of the runs, not a configuration error
    s = summarize([_fake_result(0.0, n_evals=40), _fake_result(0.0, "failed", 20)], 1e-4)
    assert (s.runs_used, s.failed_runs, s.zero_runs) == (0, 1, 1)
    assert math.isnan(s.mean_pf) and math.isnan(s.cov) and math.isnan(s.r_metric)
    assert len(s.bin_mean_pi) == 1 and math.isnan(s.bin_mean_pi[0])
    assert s.mean_evals == 30.0
    with pytest.raises(ConfigurationError):
        summarize([], 1e-4)
    for pf_ref in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="reference"):
            summarize([_fake_result(1e-4)], pf_ref)


def test_summarize_permutation_invariant():
    ref = 3e-5
    rng = random.Random(3)
    results = [_fake_result(ref * rng.uniform(0.1, 10)) for _ in range(40)]
    shuffled = results[:]
    rng.shuffle(shuffled)
    a, b = summarize(results, ref), summarize(shuffled, ref)
    assert a.mean_pf == pytest.approx(b.mean_pf, rel=1e-12)
    assert a.cov == pytest.approx(b.cov, rel=1e-12)
    assert a.r_metric == pytest.approx(b.r_metric, rel=1e-12)


def test_r_metric_decomposes_into_bias_and_spread():
    ref = 3e-5
    rng = random.Random(4)
    results = [_fake_result(ref * rng.lognormvariate(0.3, 0.8)) for _ in range(100)]
    s = summarize(results, ref)
    logs = np.log10([r.pf_hat for r in results]) - math.log10(ref)
    expected_sq = logs.mean() ** 2 + logs.var(ddof=0)
    assert s.r_metric**2 == pytest.approx(expected_sq, abs=1e-10)


def test_reference_probability_stored_values():
    assert reference_probability("piecewise_linear") == pytest.approx(3.19e-5)
    assert reference_probability("beta_points") == pytest.approx(1.33e-6)
    with pytest.raises(ConfigurationError):
        reference_probability("always_fail")


def test_reference_probability_recompute_agrees():
    n = 10**6
    est = run_mcs(get_problem("piecewise_linear"), n, RandomStream(77)).pf_hat
    stored = reference_probability("piecewise_linear")
    sigma = math.sqrt(stored * (1 - stored) / n)
    assert abs(est - stored) < 3 * sigma


def test_mean_evals_exact():
    ref = 1e-3
    results = [_fake_result(ref, n_evals=k) for k in (100, 230, 170)]
    assert summarize(results, ref).mean_evals == (100 + 230 + 170) / 3


def _flaky_linear():
    # g = 2 - theta_1, raising whenever a point strays beyond theta_2 = 3.3
    base = make_linear(2.0, dimension=2)

    def g(pts):
        if (pts[:, 1] > 3.3).any():
            raise RuntimeError("solver diverged")
        return base.evaluator(pts)

    return LimitState("flaky_linear", 2, g)


@pytest.mark.jobs
@pytest.mark.parametrize("jobs", [1, 2])
def test_replicate_records_raising_g_as_failed_runs(jobs):
    from dirss import limitstate

    register_problem("flaky_linear", _flaky_linear)
    register_problem("plain_linear", lambda: make_linear(2.0, dimension=2))
    try:
        cfg = ExperimentConfig(problem="flaky_linear", algorithm="ss", n=200, runs=16, seed=3)
        results = replicate(cfg, jobs=jobs)
        plain = replicate(dataclasses.replace(cfg, problem="plain_linear"))
    finally:
        limitstate._REGISTRY.pop("flaky_linear", None)
        limitstate._REGISTRY.pop("plain_linear", None)
    failed = [i for i, r in enumerate(results) if r.status == "failed"]
    assert 0 < len(failed) < cfg.runs
    for i, (res, ref) in enumerate(zip(results, plain)):
        if i in failed:
            assert "flaky_linear" in res.reason and "RuntimeError: solver diverged" in res.reason
            assert res.pf_hat == 0.0 and 0 < res.n_evals <= ref.n_evals
            assert len(res.bin_outcomes) == 1
        else:
            assert res.reason == ""
            assert (res.pf_hat, res.n_evals, res.levels) == (ref.pf_hat, ref.n_evals, ref.levels)


def _mask() -> LimitState:
    return LimitState("mask", 2, lambda p: p[:, 0] > 3.0)


def test_replicate_records_g_values_that_are_not_real_numbers_as_failed_runs():
    register_problem("mask", _mask)
    try:
        results = replicate(ExperimentConfig(problem="mask", algorithm="ss", n=200, runs=3))
    finally:
        limitstate._REGISTRY.pop("mask", None)
    for res in results:
        assert res.status == "failed" and res.n_evals == 200
        assert "'mask' returned values of dtype bool" in res.reason


@pytest.fixture
def spawn():
    """Worker processes by the spawn start method, the default restored afterwards."""
    method = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    yield
    multiprocessing.set_start_method(method, force=True)


def test_replicate_jobs_reach_a_problem_registered_at_run_time(spawn):
    # each spawned worker imports dirss afresh, with the built-in problems only
    register_problem("margin_2_5", partial(make_linear, 2.5, 2, "margin_2_5"))
    try:
        cfg = ExperimentConfig(problem="margin_2_5", algorithm="ss", n=100, runs=4, seed=2)
        parallel, serial = replicate(cfg, jobs=2), replicate(cfg)
    finally:
        limitstate._REGISTRY.pop("margin_2_5", None)
    assert [r.status for r in serial] == ["converged"] * cfg.runs
    for a, b in zip(parallel, serial):
        assert (a.pf_hat, a.n_evals, a.level_records) == (b.pf_hat, b.n_evals, b.level_records)
        assert a.failure_points.tobytes() == b.failure_points.tobytes()


def test_replicate_jobs_refuse_a_factory_that_does_not_pickle(spawn):
    calls = []

    def g(pts):
        calls.append(pts.shape[0])
        return 3.0 - pts[:, 0]

    register_problem("local_margin", lambda: LimitState("local_margin", 2, g))
    try:
        cfg = ExperimentConfig(problem="local_margin", algorithm="ss", n=100, runs=4)
        with pytest.raises(ConfigurationError, match="'local_margin'.*'spawn' start method"):
            replicate(cfg, jobs=2)
    finally:
        limitstate._REGISTRY.pop("local_margin", None)
    assert calls == []
