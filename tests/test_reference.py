"""An executable specification of the estimators, and the test that every run
of ``replicate`` equals it, field by field and byte by byte.

The reference runs one run, one level and one chain at a time, in plain
loops: Au & Beck's subset simulation with PAPER.md's per-bin thresholds.
It shares no code with the lockstep loop. It uses only the problem, the
partition, the checked g-call (``evaluate_batch``) and the two kernels that
test_kernels.py checks against independent implementations,
``interp_quantile`` and ``residual_resample``. A run consumes its
``RandomStream`` in this order: its level-0 draw; then, per level, the
multinomial of resampling (made only if its m seeds do not divide n) and
the (n - m) * dim normals of its chain steps (drawn only if m < n), which
its rounds take one a chain, round by round, in chain order.
"""

from __future__ import annotations

import itertools
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_lockstep import _PINNED, CASE1, SLIVER, _fields, on_both_schedules

from dirss import (
    BinOutcome,
    EvaluationError,
    ExperimentConfig,
    LevelRecord,
    LimitState,
    RandomStream,
    RunResult,
    evaluate_batch,
    get_problem,
    kernels,
    limitstate,
    make_linear,
    make_piecewise_linear,
    register_problem,
    replicate,
)
from dirss.harness import build_partition
from dirss.kernels import interp_quantile, residual_resample

_MCS_CHUNK = 10**6  # points of Monte Carlo per g-call
_STARVE_LIMIT = 3  # consecutive empty levels after which an open bin is written off
_EXTINCT = "sampler went extinct before reaching the limit state"


def reference_run(cfg: ExperimentConfig, stream_id: int) -> RunResult:
    """Run ``stream_id`` of ``cfg`` as the specification says. A g that fails on
    the run's points fails the run, with no level and every bin unresolved."""
    ls = get_problem(cfg.problem)
    part = build_partition(cfg, ls.dimension)
    stream, spent = RandomStream(cfg.seed, stream_id), [0]  # the points sent to g
    try:
        if cfg.algorithm == "mcs":
            return _monte_carlo(ls, cfg.n, stream, spent)
        return _subset(cfg, ls, part, stream, spent)
    except EvaluationError as exc:
        outcomes = tuple(BinOutcome(j, "unresolved", None, None, 0.0, float(p))
                         for j, p in enumerate(part.probs))
        return RunResult(cfg.algorithm, 0.0, outcomes, 0, spent[0], 1.0, "failed", (),
                         np.empty((0, ls.dimension)), reason=str(exc))


def _monte_carlo(ls, n, stream, spent) -> RunResult:
    fail, done = [], 0
    while done < n:
        pts = stream.standard_normal((min(_MCS_CHUNK, n - done), ls.dimension))
        spent[0] += len(pts)
        fail += [x for x, g in zip(pts, evaluate_batch(ls, pts).tolist()) if g <= 0.0]
        done += len(pts)
    pf = len(fail) / n
    return RunResult("mcs", pf, (BinOutcome(0, "finished", 0, pf, pf, 0.0),), 1, spent[0],
                     0.0, "converged", (LevelRecord(0, (0.0,), (n,), len(fail), pf, 0.0),),
                     np.array(fail).reshape(-1, ls.dimension))


def _subset(cfg, ls, part, stream, spent) -> RunResult:
    """dSS over ``part``; SS is dSS with one bin whose last threshold is forced to 0."""
    n, rho, dim, p0, ss = cfg.n, cfg.rho, ls.dimension, part.probs, cfg.algorithm == "ss"
    corr, scale = cfg.mcmc_corr, math.sqrt(1.0 - cfg.mcmc_corr**2)
    n_bins = part.n_bins
    pts = stream.standard_normal((n, dim))
    spent[0] += n
    gv, bins = evaluate_batch(ls, pts).tolist(), part.classify(pts).tolist()
    gamma, active, empty = [math.inf] * n_bins, [True] * n_bins, [0] * n_bins
    outcomes, fails, records, starved_mass, d = {}, [], [], 0.0, 0.0
    for t in itertools.count():
        per_bin = np.bincount(bins, minlength=n_bins)
        counts = per_bin.tolist()
        q = interp_quantile(np.array(gv), np.array(bins), per_bin, rho).tolist()
        for j in range(n_bins):
            empty[j] = empty[j] + 1 if active[j] and not counts[j] else 0
            if q[j] < gamma[j]:  # the fmin clamp: an empty bin's NaN keeps its threshold
                gamma[j] = q[j]
        if ss and t == cfg.max_levels - 1:
            gamma[0] = 0.0
        for j in range(n_bins):
            if active[j] and empty[j] >= _STARVE_LIMIT:  # written off, with its bound
                active[j], bound = False, float(p0[j] * rho ** (t + 1))
                starved_mass += bound
                outcomes[j] = BinOutcome(j, "starved", None, None, 0.0, bound)
            elif active[j] and counts[j] and gamma[j] <= 0.0:  # finished at gamma <= 0
                failing = [i for i in range(n) if bins[i] == j and gv[i] <= 0.0]
                p_final = len(failing) / counts[j]
                pi = float(p0[j] * rho**t * p_final)
                gamma[j], active[j], d = 0.0, False, d + pi
                fails += [pts[i] for i in failing]
                outcomes[j] = BinOutcome(j, "finished", t, p_final, pi, 0.0)
        # a seed lies at or below its bin's threshold; a closed bin holds none but in
        # SS, whose last level counts its failing points
        table = [g if ss or a else -math.inf for g, a in zip(gamma, active)]
        seeds = [i for i in range(n) if gv[i] <= table[bins[i]]]
        u = float(p0[np.array(active, dtype=bool)].sum() * rho ** (t + 1) + starved_mass)
        records.append(LevelRecord(t, tuple(gamma), tuple(counts), len(seeds), d, u))
        bound_met = q[0] <= 0.0 if ss else d > 0.0 and u <= cfg.eps_tol * d
        if bound_met or not any(active) or t == cfg.max_levels or not seeds:
            status = ("converged" if bound_met else
                      "failed" if any(active) and t < cfg.max_levels else "max_levels")
            break
        # the next population: one chain from each seed, its offspring count long
        offspring = residual_resample(np.array([len(seeds)]), n, [stream]).tolist()
        eps = stream.standard_normal((n - len(seeds), dim)) if len(seeds) < n else None
        chains, e = [[(pts[i], gv[i], bins[i])] for i in seeds], 0
        while live := [c for c, k in zip(chains, offspring) if len(c) < k]:
            props = []
            for c in live:
                props.append(corr * c[-1][0] + scale * eps[e])
                e += 1
            pbins = part.classify(np.array(props)).tolist()
            # a proposal into a closed bin is rejected without a g-evaluation
            to_g = [i for i, b in enumerate(pbins) if table[b] > -math.inf]
            spent[0] += len(to_g)
            g_new = dict(zip(to_g, evaluate_batch(
                ls, np.array([props[i] for i in to_g])).tolist() if to_g else []))
            for i, c in enumerate(live):
                g = g_new.get(i, math.inf)
                c.append((props[i], g, pbins[i]) if g <= table[pbins[i]] else c[-1])
        pts = np.array([s[0] for c in chains for s in c])
        gv, bins = [s[1] for c in chains for s in c], [s[2] for c in chains for s in c]
    for j in range(n_bins):
        if active[j]:
            outcomes[j] = BinOutcome(j, "unresolved", None, None, 0.0,
                                     float(p0[j]) * rho ** (t + 1))
    ordered = tuple(outcomes[j] for j in range(n_bins))
    return RunResult(
        cfg.algorithm, float(sum(o.pi_hat for o in ordered if o.status == "finished")),
        ordered, t + 1, spent[0], float(sum(o.bound for o in ordered)), status,
        tuple(records), np.array(fails).reshape(-1, dim),
        _EXTINCT if status == "failed" else "")


def _faulty(mode: str) -> LimitState:
    """piecewise_linear, except that g faults on about 1 point in 5000."""
    base = make_piecewise_linear()

    def g(pts):
        gv = base.evaluator(pts)
        bad = np.modf(np.abs(pts[:, 0]) * 1e4)[0] < 2e-4
        if bad.any():
            if mode == "raise":
                raise RuntimeError("solver diverged")
            gv[bad] = np.nan
        return gv

    return LimitState(f"spec_faulty_{mode}", 2, g)


def _plateaus() -> LimitState:
    """g rounded to 1/64, so that it ties thresholds, and 0, on whole regions: of the
    smaller of piecewise_linear and a plane that fails with probability 0.008."""
    base = make_piecewise_linear()

    def g(pts):
        return np.round(64.0 * np.minimum(base.evaluator(pts),
                                          2.5 - pts[:, 0] - 0.3 * pts[:, 1])) / 64.0

    return LimitState("spec_plateaus", 2, g)


# problems by dimension; the faulty ones fail some runs, never_fail stalls every level
_DIMS = {"piecewise_linear": 2, "beta_points": 2, "never_fail": 2, "spec_plateaus": 2,
         "spec_faulty_nan": 2, "spec_faulty_raise": 2, "spec_linear_d3": 3}
_PARTITIONS = {
    2: [{"partition": "single"}, {"partition": "angular", "cuts": CASE1},
        {"partition": "angular", "cuts": SLIVER}, {"partition": "halfspace", "axis": 2},
        {"partition": "orthants"}],
    3: [{"partition": "halfspace", "axis": 1}, {"partition": "orthants"}],
}


@pytest.fixture(autouse=True, scope="module")
def _problems():
    names = {"spec_faulty_nan": partial(_faulty, "nan"),
             "spec_faulty_raise": partial(_faulty, "raise"),
             "spec_plateaus": _plateaus,
             "spec_linear_d3": partial(make_linear, 2.0, 3, "spec_linear_d3"),
             "linear_d6": partial(make_linear, 3.0, 6, "linear_d6")}
    for name, make in names.items():
        register_problem(name, make)
    yield
    for name in names:
        limitstate._REGISTRY.pop(name, None)


@st.composite
def _configs(draw):
    algorithm = draw(st.sampled_from(["mcs", "ss", "dss"]))
    problem = draw(st.sampled_from(sorted(_DIMS)))
    part = draw(st.sampled_from(_PARTITIONS[_DIMS[problem]])) if algorithm == "dss" else {}
    return ExperimentConfig(
        problem=problem,
        algorithm=algorithm,
        n=draw(st.integers(2, 1500 if algorithm == "mcs" else 100)),
        rho=draw(st.sampled_from([0.1, 0.2, 0.3, 0.5])),
        mcmc_corr=draw(st.sampled_from([0.5, 0.8, 0.95])),
        eps_tol=draw(st.sampled_from([1e-3, 0.1])),
        max_levels=draw(st.integers(1, 10)),
        runs=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 2**32)),
        **part,
    )


def _assert_matches_reference(cfg: ExperimentConfig) -> None:
    results = replicate(cfg)
    assert len(results) == cfg.runs
    for i, res in enumerate(results):
        assert _fields(res) == _fields(reference_run(cfg, i)), f"run {i}"


@pytest.mark.filterwarnings("ignore:bin with probability")
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_configs())
# ties, which a continuous g almost never makes: proposals on their bin's threshold,
# failing points at g == 0
@example(ExperimentConfig("spec_plateaus", "mcs", 20000, runs=3, seed=5))
@example(ExperimentConfig("spec_plateaus", "ss", 100, runs=3, seed=1))
@example(ExperimentConfig("spec_plateaus", "dss", 100, partition="angular", cuts=CASE1,
                          runs=3, seed=0))
@example(ExperimentConfig("spec_plateaus", "dss", 60, partition="halfspace", axis=2, runs=3,
                          seed=1))
def test_replicate_equals_the_reference(cfg):
    _assert_matches_reference(cfg)


@pytest.mark.filterwarnings("ignore:bin with probability")
@pytest.mark.parametrize("cfg, level_draw", on_both_schedules([c[:1] for c in _PINNED]))
def test_pinned_configs_equal_the_reference(monkeypatch, cfg, level_draw):
    monkeypatch.setattr(kernels, "_LEVEL_DRAW", level_draw)
    _assert_matches_reference(cfg)
