"""Lockstep replicate: runs of a group share g-calls, yet each run's result
equals the one it gets alone, field by field and byte by byte."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dirss import (
    EvaluationError,
    ExperimentConfig,
    LimitState,
    McmcConfig,
    RandomStream,
    get_problem,
    kernels,
    limitstate,
    make_angular_sectors_2d,
    make_halfspace,
    make_linear,
    make_piecewise_linear,
    register_problem,
    replicate,
    run_mcs,
    run_single,
    run_ss,
)
from dirss.estimators import DssGroup
from dirss.harness import group_size
from dirss.kernels import (
    ChainRequest,
    interp_quantile,
    propagate_chains,
    run_steps,
)

CASE1 = (-math.pi + 0.8, 0.8)
SLIVER = (-math.pi + 0.8, 0.75, 0.8)  # a 0.05 rad bin that starves at small n
# two thin bins: at n=200 a run finishes two bins at one level, and one run starves a bin
TWINS = (-math.pi / 2, -0.02, 0.0, 1.0, 1.02, math.pi / 2)


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
    # factories that pickle, so that worker processes of any start method get them
    names = {f"faulty_{m}": partial(_faulty, m) for m in ("nan", "raise", "shape")}
    names["linear_d10"] = partial(make_linear, 3.0, 10, "linear_d10")
    names["linear_d6"] = partial(make_linear, 3.0, 6, "linear_d6")
    names["linear35_d10"] = partial(make_linear, 3.5, 10, "linear35_d10")
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
    assert group_size(cfg, 2) == 262
    assert group_size(dataclasses.replace(cfg, n=1000), 2) == 131
    # n * dim <= 2**18: runs share g-calls at least five to a group; beyond 2**18 alone
    assert group_size(dataclasses.replace(cfg, n=20000), 10) == 5
    assert group_size(dataclasses.replace(cfg, n=26300), 10) == 1
    assert group_size(dataclasses.replace(cfg, n=13000), 10) == 5


def test_replicate_looks_the_problem_up_once(monkeypatch):
    made = []

    def factory():
        made.append(None)
        return make_piecewise_linear()

    monkeypatch.setitem(limitstate._REGISTRY, "counted", factory)
    calls = _Calls()
    monkeypatch.setattr("dirss.harness.get_problem", lambda name: calls.wrap(
        limitstate.get_problem(name)))
    # n * dim = 400000 > 2**18: three groups of one run, one g-call each
    replicate(ExperimentConfig("counted", "mcs", 200000, runs=3))
    assert (len(made), calls.sizes) == (1, [200000] * 3)


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


@pytest.mark.filterwarnings("ignore:bin with probability")
@pytest.mark.parametrize("cfg", [
    ExperimentConfig("piecewise_linear", "ss", 100, runs=5, seed=3),
    ExperimentConfig("piecewise_linear", "dss", 120, partition="angular", cuts=CASE1,
                     runs=6, seed=4),
    ExperimentConfig("piecewise_linear", "dss", 60, partition="angular", cuts=SLIVER,
                     max_levels=9, runs=6, seed=8),
    # a round whose proposals all land in a closed bin: the run proposes again
    ExperimentConfig("piecewise_linear", "dss", 80, partition="halfspace", axis=2, rho=0.5,
                     runs=6, seed=0),
    # 70 runs of n=500 in 2-D: one group, whose runs end their levels at different steps
    ExperimentConfig("piecewise_linear", "dss", 500, partition="angular", cuts=CASE1,
                     runs=70, seed=1),
    # a run's level ends on a round with no point for g while other runs wait on g:
    # its next level must join the same g-call
    ExperimentConfig("piecewise_linear", "dss", 60, partition="halfspace", axis=2,
                     runs=4, seed=2),
    ExperimentConfig("piecewise_linear", "dss", 60, partition="halfspace", axis=2, rho=0.5,
                     runs=4, seed=6),
])
def test_a_group_makes_as_many_g_calls_as_its_longest_run(cfg):
    check_group_g_calls(cfg)


def check_group_g_calls(cfg: ExperimentConfig) -> None:
    """Each step of a group serves the next batch of every live run, whatever step
    it is at: with a g that never faults, the group of ``cfg``'s runs makes as many
    g-calls as its longest run alone, and no run skips a step."""
    calls, evaluate = _Calls(), kernels._Lockstep.evaluate
    served: dict[int, list[int]] = {}  # run -> the group's g-calls that carry its points

    def logged_evaluate(self):
        for k in {k for q in self.queue for k in q[1]}:
            served.setdefault(k, []).append(len(calls.sizes))
        return evaluate(self)

    solo = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("dirss.harness.get_problem", lambda name: calls.wrap(
            limitstate.get_problem(name)))
        with pytest.MonkeyPatch.context() as logged:
            logged.setattr(kernels._Lockstep, "evaluate", logged_evaluate)
            replicate(cfg)
        group = len(calls.sizes)
        for i in range(cfg.runs):
            calls.sizes.clear()
            run_single(cfg, i)
            solo.append(len(calls.sizes))
    assert group_size(cfg, get_problem(cfg.problem).dimension) >= cfg.runs
    assert group == max(solo)
    # no run skips a step: run i has points in the group's first solo[i] g-calls
    assert [served[i] for i in range(cfg.runs)] == [list(range(c)) for c in solo]


def test_runs_whose_proposals_all_land_in_closed_bins_keep_in_step():
    # one chain per run, half of whose proposals land in the closed bin: a
    # run with no point for g takes its round and proposes again at once
    calls = _Calls()
    ls = calls.wrap(LimitState("theta", 2, lambda pts: pts[:, 0]))
    region = np.array([[np.inf, -np.inf]])

    def request(k):
        # one chain of 300 states from run k's seed
        seed = np.array([[-0.1 * (k + 1), 0.0]])
        return ChainRequest(seed, seed[:, 0], np.zeros(1, dtype=np.int64), np.array([0]),
                            np.array([1]), np.array([300]), region)

    def stepper(ks):
        return _Requests(ls, 300, make_halfspace(1, 2), McmcConfig(0.5),
                         [RandomStream(10, k) for k in ks], *[request(k) for k in ks])

    steps = stepper(range(3))
    group, n_evals = run_steps(steps), steps.n_evals
    n_group, solo = len(calls.sizes), []
    for k in range(3):
        calls.sizes.clear()
        steps = stepper([k])
        alone = run_steps(steps)[0]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(alone, group[k]))
        assert steps.n_evals[0] == n_evals[k] == sum(calls.sizes) < 299  # some rounds were free
        solo.append(len(calls.sizes))
    assert n_group == max(solo)


@pytest.mark.parametrize("n, sizes", [
    (26300, [26300] * 3), (13000, [39000]), (20000, [60000]),
])
def test_large_populations_run_in_small_groups(monkeypatch, n, sizes):
    # n * dim = 263000 > 2**18 leaves every run alone; at 130000 and 200000 the
    # three runs are one group
    calls = _Calls()
    monkeypatch.setattr("dirss.harness.get_problem", lambda name: calls.wrap(
        limitstate.get_problem(name)))
    cfg = ExperimentConfig("linear_d10", "mcs", n, runs=3, seed=2)
    results = replicate(cfg)
    assert calls.sizes == sizes
    _assert_matches_solo(cfg, results)


def test_grouped_monte_carlo_in_chunks_matches_solo_runs(monkeypatch):
    # 3000 points in chunks of 700: four full chunks and a rest of 200, each
    # drawn by every run of the group from its own stream and evaluated in one call
    monkeypatch.setitem(limitstate._REGISTRY, "linear_10pct",
                        partial(make_linear, 1.2816, 2, "linear_10pct"))  # pf = 0.1000
    cfg = ExperimentConfig("linear_10pct", "mcs", 3000, runs=3, seed=7)
    whole = [run_single(cfg, i) for i in range(cfg.runs)]
    assert all(len(r.failure_points) > 200 for r in whole)
    calls = _Calls()
    monkeypatch.setattr("dirss.harness.get_problem", lambda name: calls.wrap(
        limitstate.get_problem(name)))
    monkeypatch.setattr("dirss.estimators._MCS_CHUNK", 700)
    results = replicate(cfg)
    assert calls.sizes == [3 * 700] * 4 + [3 * 200]
    assert [_fields(r) for r in results] == [_fields(r) for r in whole]


def test_monte_carlo_runs_that_fault_draw_no_further_chunk(monkeypatch):
    # 3000 points in chunks of 700: runs 3, 2 and 0 make g fail on their first,
    # second and fourth chunk, and run 1 never does
    monkeypatch.setattr("dirss.estimators._MCS_CHUNK", 700)
    cfg = ExperimentConfig("faulty_nan", "mcs", 3000, runs=4, seed=0)
    calls = _Calls()
    monkeypatch.setattr("dirss.harness.get_problem", lambda name: calls.wrap(
        limitstate.get_problem(name)))
    results = replicate(cfg)
    sizes = list(calls.sizes)
    failed = [i for i, r in enumerate(results) if r.status == "failed"]
    faulted_on = {i: -(-results[i].n_evals // 700) - 1 for i in failed}  # chunk index
    assert faulted_on == {0: 3, 2: 1, 3: 0}
    for i, res in enumerate(results):
        if i in failed:
            # the error the estimator raises when it runs alone
            with pytest.raises(EvaluationError) as exc:
                run_mcs(get_problem(cfg.problem), cfg.n, RandomStream(cfg.seed, i))
            assert (res.reason, res.n_evals) == (str(exc.value), exc.value.n_evals)
            assert "non-finite" in res.reason
        assert _fields(res) == _fields(run_single(cfg, i))
    # a chunk is one g-call of the live runs' points, repeated run by run when
    # it faults; a run that faulted draws no further chunk
    want, live = [], list(range(cfg.runs))
    for c, size in enumerate([700] * 4 + [200]):
        want.append(len(live) * size)
        if any(faulted_on.get(i) == c for i in live):
            want += [size] * len(live)
        live = [i for i in live if faulted_on.get(i) != c]
    assert sizes == want
    assert sizes[-1] == 200  # run 1 alone


@pytest.mark.jobs
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


@pytest.mark.jobs
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


def _digest(results) -> str:
    """sha256 of every field of the results; floats by repr, failure points as bytes."""
    h = hashlib.sha256()
    for res in results:
        fp = res.failure_points
        rest = {f.name: getattr(res, f.name) for f in dataclasses.fields(res)}
        del rest["failure_points"]
        h.update(repr((rest, fp.shape, fp.dtype.str)).encode())
        h.update(fp.tobytes())
    return h.hexdigest()


# Recorded with the chain kernel that looped over each run's lockstep
# rounds, before one slab served a group: replicate and run_single now
# share one kernel, so only these values tie its bytes to the old one.
# Re-recorded when level records came to hold typed arrays, not tuples: with
# every record's arrays turned into tuples the digest read the old value.
# Next to the results: the number of g-calls and a digest of their sizes.
_PINNED = [
    (ExperimentConfig("piecewise_linear", "mcs", 3000, runs=3, seed=21),
     "65f84b8ceb6ea44e920cb6d25f0d238e09d5faf8a8d14e281daabb42faa3f539",
     1, "01178a62f001b64b"),
    (ExperimentConfig("piecewise_linear", "ss", 200, runs=4, seed=22),
     "eaf338282bd5e0277ecd417156e26d43c7a1e2cf8d808226f66c718c6e6d8b63",
     54, "8f4a0b6248a4f16f"),
    (ExperimentConfig("piecewise_linear", "dss", 200, partition="angular", cuts=CASE1,
                      runs=4, seed=23),
     "503861a48e2d08fddf9b736c02bf3f0b364fc0a319dffd7ec094ede7d76e857a",
     63, "6ffe446d27f6dc5e"),
    (ExperimentConfig("piecewise_linear", "dss", 60, partition="angular", cuts=SLIVER,
                      max_levels=9, runs=6, seed=8),
     "f80b08b3136d2c7841d962129a76e9496eaf27e3e1d7e71994cccb33b32b9d3a",
     49, "9aab30c7ed3d05f0"),
    (ExperimentConfig("linear_d6", "dss", 400, partition="orthants", runs=3, seed=24),
     "b54ecdde07cf3147f373f9f6a6f45beee8bc856afa2745f259f67948c1ee7831",
     21, "a9dbd8d778a3a8ff"),
    (ExperimentConfig("piecewise_linear", "dss", 200, partition="angular", cuts=TWINS,
                      runs=5, seed=0, max_levels=10),
     "250c8058785fd9eb8afc9375d9ad509ef6e80e1dfc242445a6fe13628d6424df",
     46, "9f4df1095a6d6eab"),
]
_PINNED_IDS = ["mcs", "ss", "dss-case1", "dss-sliver", "dss-orthants6", "dss-twins"]


def on_both_schedules(cases) -> list:
    """Each of the ``_PINNED`` cases given with the ``_LEVEL_DRAW`` that puts every
    group on each schedule of its normals: a level's in one draw (the case's own
    id), or a round's at a time (the id with ``-rounds``)."""
    return [pytest.param(*case, draw, id=name + suffix) for case, name in zip(cases, _PINNED_IDS)
            for suffix, draw in (("", math.inf), ("-rounds", 0))]


@pytest.mark.filterwarnings("ignore:bin with probability")
@pytest.mark.parametrize("cfg, digest, n_calls, sizes_digest, level_draw",
                         on_both_schedules(_PINNED))
def test_results_keep_their_pinned_bytes(monkeypatch, cfg, digest, n_calls, sizes_digest,
                                         level_draw):
    monkeypatch.setattr(kernels, "_LEVEL_DRAW", level_draw)
    calls = _Calls()
    monkeypatch.setattr("dirss.harness.get_problem", lambda name: calls.wrap(
        limitstate.get_problem(name)))
    results = replicate(cfg)
    if cfg.cuts == SLIVER:
        assert any(o.status == "starved" for r in results for o in r.bin_outcomes)
    if cfg.cuts == TWINS:  # the bin table's sums see both cases
        levels = [[o.level for o in r.bin_outcomes if o.status == "finished"] for r in results]
        assert any(len(set(lv)) < len(lv) for lv in levels) and any(
            o.status == "starved" for r in results for o in r.bin_outcomes)
    assert _digest(results) == digest
    assert len(calls.sizes) == n_calls
    assert hashlib.sha256(repr(calls.sizes).encode()).hexdigest()[:16] == sizes_digest


def test_runs_that_end_a_level_together_share_one_threshold_update(monkeypatch):
    updates = []

    def counted(*args, **kwargs):
        updates.append(args[1].size)
        return interp_quantile(*args, **kwargs)

    monkeypatch.setattr("dirss.estimators.interp_quantile", counted)
    cfg = ExperimentConfig("piecewise_linear", "dss", 500, partition="angular", cuts=CASE1,
                           runs=40, seed=31)
    assert group_size(cfg, 2) >= cfg.runs
    results = replicate(cfg)
    run_levels = sum(r.levels for r in results)
    assert sum(updates) == cfg.n * run_levels  # every level of every run, in fewer calls
    assert 2 * len(updates) < run_levels
    _assert_matches_solo(cfg, results)


def test_runs_that_end_levels_at_different_steps_match_solo_runs(monkeypatch):
    # log the g-call count at which each run brings the chains of a level
    steps: dict[int, list[int]] = {}
    calls = [0]
    enter, evaluate = kernels._Lockstep.enter, kernels._Lockstep.evaluate

    def logged_enter(self, ks, want):
        for k in ks.tolist():
            steps.setdefault(k, []).append(calls[0])
        return enter(self, ks, want)

    def counted_evaluate(self):
        calls[0] += 1
        return evaluate(self)

    monkeypatch.setattr(kernels._Lockstep, "enter", logged_enter)
    monkeypatch.setattr(kernels._Lockstep, "evaluate", counted_evaluate)
    cfg = ExperimentConfig("piecewise_linear", "dss", 150, partition="angular", cuts=CASE1,
                           runs=6, seed=9)
    results = replicate(cfg)
    # the first level starts at one step for all; the second at different ones
    assert len({s[0] for s in steps.values()}) == 1
    assert len({s[1] for s in steps.values()}) > 1
    _assert_matches_solo(cfg, results)


def test_a_run_lets_go_of_its_seeds_once_the_slab_has_taken_them(monkeypatch):
    # a request holds the rows its seeds are named by, the slab's or any others,
    # and its offspring counts: held past the slab's gather, they would outlive
    # it, next to the populations the next level reads
    taken, held = [], []
    enter, send = kernels._Lockstep.enter, DssGroup.send

    def logged_enter(self, ks, want):
        taken.append(weakref.ref(want))
        return enter(self, ks, want)

    def checked_send(self, ks, slab):
        held.append(sum(ref() is not None for ref in taken))
        return send(self, ks, slab)

    monkeypatch.setattr(kernels._Lockstep, "enter", logged_enter)
    monkeypatch.setattr(DssGroup, "send", checked_send)
    cfg = ExperimentConfig("piecewise_linear", "dss", 150, partition="angular", cuts=CASE1,
                           runs=3, seed=9)
    results = replicate(cfg)
    run_single(cfg, 0)
    assert len(taken) >= max(r.levels for r in results) - 1
    assert not any(held)


@pytest.mark.filterwarnings("ignore:bin with probability")
def test_five_large_runs_read_their_populations_in_the_slab(monkeypatch):
    # five runs of n=20000 in 10-D over 1024 orthants, one group: every level,
    # level 0 included, is handed over as one set of views of the whole slab,
    # run k's population at index k; the rounds draw their own normals, so the
    # slab holds none, the seeds are gathered a block of runs at a time, and the
    # orthants are classified, the moves in open bins kept and the states written
    # on without a copy of every point, so the group peaks within README's
    # n*(dim+10)*8 bytes a run (16.0 MB; 14.83-15.68 MB at seeds 1-10); with the
    # slab's chain tables and int64 bins, n*(dim+4)*8 bytes of slab a run, five
    # runs took up to 18.2 MB, with each run's normals drawn a level at a time
    # into the slab up to n*(2*dim+13)*8 (26.2 MB of 26.4),
    # with level 0's orthants classified through an integer copy of it 28.35 MB,
    # and with the states, or the moves and the states, copied whole 26.85 and
    # 27.36 MB
    slabs, reads = [], []
    draw, send = kernels._Lockstep.draw, DssGroup.send

    def logged_draw(self):
        slabs.append(self)
        return draw(self)

    def logged_send(self, ks, slab):
        if slab is not None:
            own = slabs[-1]
            reads.append((len(ks), all(a.shape[0] == 5 and a.size == b.size
                                       and np.shares_memory(a, b) for a, b in zip(
                                           slab, (own.out_p, own.out_g, own.out_b)))))
        return send(self, ks, slab)

    monkeypatch.setattr(kernels._Lockstep, "draw", logged_draw)
    monkeypatch.setattr(DssGroup, "send", logged_send)
    cfg = ExperimentConfig("linear35_d10", "dss", 20000, partition="orthants", runs=5, seed=4)
    replicate(dataclasses.replace(cfg, n=100))  # first-use allocations, outside the trace
    slabs.clear()
    reads.clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        results = replicate(cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert group_size(cfg, 10) == cfg.runs
    assert peak <= cfg.runs * cfg.n * (10 + 10) * 8
    assert reads[0] == (5, True)  # level 0 of the five runs
    assert all(shared for _, shared in reads)
    assert sum(size for size, _ in reads) == sum(r.levels for r in results)
    _assert_matches_solo(cfg, results)


@pytest.mark.filterwarnings("ignore:bin with probability")
@pytest.mark.parametrize("cfg", [
    ExperimentConfig("piecewise_linear", "dss", 150, partition="angular", cuts=CASE1, runs=6,
                     seed=9),
    ExperimentConfig("linear_d10", "dss", 2000, partition="orthants", runs=3, seed=2),
], ids=["level-draw", "round-draw"])
def test_a_groups_slab_is_at_most_dim_plus_2_words_a_row(monkeypatch, cfg):
    # a row of the slab is a point, its g-value, its int32 bin and the flag of a
    # chain's last slot, 8*dim + 13 bytes; a live chain is named by its next
    # slot, so the group keeps no table from chains to slots, which with int64
    # bins made a row dim+4 words. A run's level of normals (eps, on the
    # level-draw schedule) is not counted
    slabs = []
    draw = kernels._Lockstep.draw

    def logged_draw(self):
        slabs.append(self)
        return draw(self)

    monkeypatch.setattr(kernels._Lockstep, "draw", logged_draw)
    replicate(cfg)
    (step,) = slabs
    rows, dim = cfg.runs * cfg.n, step.out_p.shape[1]
    slab = (step.out_p, step.out_g, step.out_b, step.chain_end)
    assert sum(a.nbytes for a in slab) <= rows * (dim + 2) * 8
    # nor does the group keep any other array of a number a row
    per_row = {name for name, a in vars(step).items()
               if isinstance(a, np.ndarray) and a.size >= rows}
    assert per_row <= {"out_p", "out_v", "out_g", "out_b", "chain_end", "eps"}
    assert ("eps" in per_row) == (cfg.n * dim <= kernels._LEVEL_DRAW)


class _Requests:
    """A stepper whose runs bring the chains of the given requests at the start,
    each request the next runs in order."""

    def __init__(self, ls, n, partition, mcmc, streams, *requests: ChainRequest):
        self.ls, self.n, self.partition, self.mcmc, self.streams = ls, n, partition, mcmc, streams
        self.requests, self.n_evals = requests, np.zeros(len(streams), np.int64)
        self.results = [None] * sum(r.n_seeds.size for r in requests)

    def send(self, ks, slab):
        if slab is None:
            runs = iter(range(len(self.results)))
            return [([next(runs) for _ in r.n_seeds], r) for r in self.requests]
        points, gvals, bins = slab
        for k in ks:  # bins widened to int64, as propagate_chains gives them
            self.results[k] = points[k].copy(), gvals[k].copy(), bins[k].astype(np.int64)
        return []


def test_runs_without_a_chain_step_enter_next_to_runs_that_chain():
    # one request at one step: run 1 brings as many seeds as its population
    # (m == n, so no draw and no g-call), runs 0 and 2 grow chains; each
    # gets what propagate_chains gives it alone
    calls, part, n = _Calls(), make_angular_sectors_2d(CASE1), 30
    ls = calls.wrap(make_piecewise_linear())
    rng = np.random.default_rng(12)
    seeds = [rng.standard_normal((m, 2)) for m in (7, n, 11)]
    gvals = [make_piecewise_linear().evaluator(p) for p in seeds]
    counts = [np.array([5, 5, 4, 4, 4, 4, 4]), np.ones(n, np.int64),
              np.r_[np.full(8, 3), np.full(3, 2)]]
    active = np.array([[True, True], [True, False], [False, True]])
    gamma = np.where(active, [[g.max() + 0.5] * 2 for g in gvals], -np.inf)
    cfg = McmcConfig(0.7)
    # the seeds are named by row of a population that holds them in shuffled
    # order among 5 rows that are no seeds, whose bin 99 does not exist
    stacked = [np.concatenate(a) for a in (seeds, gvals, [part.classify(p) for p in seeds])]
    at = rng.permutation(stacked[0].shape[0] + 5)[: stacked[0].shape[0]]
    rows = [np.full((at.size + 5, *a.shape[1:]), 99, a.dtype) for a in stacked]
    for row, a in zip(rows, stacked):
        row[at] = a
    request = ChainRequest(*rows, at, np.array([7, n, 11]), np.concatenate(counts), gamma)
    steps = _Requests(ls, n, part, cfg, [RandomStream(13, k) for k in range(3)], request)
    group, n_evals = run_steps(steps), steps.n_evals
    n_group, solo = len(calls.sizes), []
    for k in range(3):
        calls.sizes.clear()
        stream = RandomStream(13, k)
        alone = propagate_chains(seeds[k], gvals[k], part.classify(seeds[k]), counts[k],
                                 gamma[k], cfg, stream, ls, part)
        assert [a.tobytes() for a in alone] == [a.tobytes() for a in group[k]]
        assert n_evals[k] == sum(calls.sizes)
        solo.append(len(calls.sizes))
        # each stream is left where the run alone leaves it
        assert stream.standard_normal(3).tobytes() == steps.streams[k].standard_normal(3).tobytes()
    assert solo[1] == n_evals[1] == 0
    assert group[1][0].tobytes() == seeds[1].tobytes()
    assert n_group == max(solo) > 0


@pytest.mark.filterwarnings("ignore:bin with probability")
def test_a_stalled_run_matches_its_solo_run_in_a_group():
    # run 3 stalls from level 5 on: all its particles are seeds, so each of
    # its levels ends without a chain step, at the step where the others chain
    cfg = ExperimentConfig("piecewise_linear", "ss", 100, max_levels=60, runs=5, seed=6)
    results = replicate(cfg)
    assert results[3].status == "max_levels"
    assert {r.n_seeds for r in results[3].level_records[5:-1]} == {cfg.n}
    assert min(r.levels for r in results) > 6  # the others still chain then
    _assert_matches_solo(cfg, results)


def test_finished_run_keeps_its_results_while_the_group_runs_on():
    ls, part = make_piecewise_linear(), make_angular_sectors_2d(CASE1)
    snapshots = {}
    group = DssGroup(ls, part, 150, 0.2, McmcConfig(), 1e-3, 50,
                     [RandomStream(4, k) for k in range(5)])
    send = group.send

    def snapshot(ks, slab):
        wants = send(ks, slab)
        for k, res in enumerate(group.results):
            if res is not None and k not in snapshots:
                snapshots[k] = _fields(res)
                assert group.fail_pts[k] is None  # only the result holds its failure points
        return wants

    group.send = snapshot
    results = run_steps(group)
    assert len({r.levels for r in results}) > 1  # some runs finish while others go on
    assert all(r.failure_points.size for r in results)
    for k, res in enumerate(results):
        assert _fields(res) == snapshots[k]
