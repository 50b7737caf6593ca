from __future__ import annotations

import dataclasses
import hashlib
import math
import sys
from array import array
from functools import partial

import numpy as np
import pytest
from scipy import stats

from dirss import (
    BinOutcome,
    ConfigurationError,
    EvaluationError,
    ExperimentConfig,
    LimitState,
    RandomStream,
    estimators,
    evaluate_batch,
    get_problem,
    limitstate,
    make_angular_sectors_2d,
    make_linear,
    make_orthants,
    make_single_bin,
    replicate,
    run_dss,
    run_mcs,
    run_ss,
)

CASE1 = make_angular_sectors_2d((-math.pi + 0.8, 0.8))


def _counting(ls: LimitState):
    """Wrap a problem so evaluator calls are tallied independently."""
    calls = {"n": 0}

    def wrapped(pts):
        calls["n"] += pts.shape[0]
        return ls.evaluator(pts)

    return LimitState(ls.name, ls.dimension, wrapped), calls


def _fields(res) -> tuple:
    """Every field of a RunResult; floats by repr (so bit for bit), points as bytes."""
    fp = res.failure_points
    rest = {f.name: getattr(res, f.name) for f in dataclasses.fields(res)}
    del rest["failure_points"]
    return repr(rest), fp.shape, fp.dtype.str, fp.tobytes()


# ------------------------------------------------------------------- MCS

def test_mcs_trivial_problems():
    assert run_mcs(get_problem("always_fail"), 500, RandomStream(1)).pf_hat == 1.0
    res = run_mcs(get_problem("never_fail"), 500, RandomStream(1))
    assert res.pf_hat == 0.0
    assert res.n_evals == 500
    assert res.levels == 1
    with pytest.raises(ConfigurationError, match="at least 1 sample"):
        run_mcs(get_problem("never_fail"), 0, RandomStream(1))


def test_mcs_chunking_consistent(monkeypatch):
    ls = get_problem("piecewise_linear")
    full = run_mcs(ls, 30_000, RandomStream(2))
    monkeypatch.setattr(estimators, "_MCS_CHUNK", 7_000)
    chunked = run_mcs(ls, 30_000, RandomStream(2))
    assert full.pf_hat == chunked.pf_hat
    assert full.n_evals == chunked.n_evals == 30_000


def test_mcs_failure_points_fail():
    ls = make_linear(1.5, dimension=2)
    res = run_mcs(ls, 20_000, RandomStream(3))
    gv = evaluate_batch(ls, res.failure_points)
    assert (gv <= 0).all()
    assert len(res.failure_points) == round(res.pf_hat * 20_000)


def test_mcs_grand_mean_unbiased():
    # g = 2 - theta_1 has failure probability Phi(-2) exactly; the grand
    # mean over many runs must sit within 4 standard errors of it
    ls = make_linear(2.0)
    pf_true = stats.norm.cdf(-2.0)
    m, n = 10_000, 10_000
    mean = np.mean([run_mcs(ls, n, RandomStream(4, i)).pf_hat for i in range(m)])
    se = math.sqrt(pf_true * (1 - pf_true) / (m * n))
    assert abs(mean - pf_true) < 4.0 * se


# -------------------------------------------------------------------- SS

def test_ss_always_fail_stops_at_first_level():
    res = run_ss(get_problem("always_fail"), 100, stream=RandomStream(5))
    assert res.pf_hat == 1.0
    assert res.levels == 1
    assert res.status == "converged"
    assert res.n_evals == 100


def test_ss_hits_max_levels_on_never_fail():
    res = run_ss(get_problem("never_fail"), 50, max_levels=4, stream=RandomStream(6))
    assert res.status == "max_levels"
    assert res.pf_hat == 0.0
    assert res.levels == 4


def test_ss_level_records_consistent():
    res = run_ss(get_problem("piecewise_linear"), 400, stream=RandomStream(7))
    records = res.level_records
    assert len(records) == res.levels
    gammas = [r.gamma[0] for r in records]
    assert all(a >= b - 1e-15 for a, b in zip(gammas, gammas[1:]))
    assert all(r.counts[0] == 400 for r in records)
    assert records[-1].gamma[0] == 0.0


def test_ss_eval_accounting():
    ls, calls = _counting(get_problem("piecewise_linear"))
    res = run_ss(ls, 300, stream=RandomStream(8))
    assert res.n_evals == calls["n"]
    assert res.n_evals >= 300


def test_ss_estimate_matches_decomposition():
    res = run_ss(get_problem("piecewise_linear"), 400, stream=RandomStream(9))
    (outcome,) = res.bin_outcomes
    assert outcome.status == "finished"
    assert res.pf_hat == pytest.approx(0.2**outcome.level * outcome.p_final, abs=1e-15)


def test_ss_stream_defaults_to_seed_zero():
    ls = get_problem("piecewise_linear")
    res = run_ss(ls, 200)
    ref = run_ss(ls, 200, stream=RandomStream(0))
    assert (res.pf_hat, res.n_evals, res.level_records) == (
        ref.pf_hat, ref.n_evals, ref.level_records
    )


def test_ss_input_validation():
    with pytest.raises(ConfigurationError):
        run_ss(get_problem("always_fail"), 1, stream=RandomStream(0))
    with pytest.raises(ConfigurationError):
        run_ss(get_problem("always_fail"), 100, rho=1.5, stream=RandomStream(0))
    with pytest.raises(ConfigurationError, match="eps_tol"):
        run_dss(get_problem("always_fail"), make_single_bin(2), 100, eps_tol=math.nan)
    with pytest.raises(ConfigurationError, match="eps_tol"):  # would stop at the first finished bin
        run_dss(get_problem("always_fail"), make_single_bin(2), 100, eps_tol=math.inf)
    for max_levels in (0, 4.5, True):  # a level cap of 4.5 is never reached
        with pytest.raises(ConfigurationError, match="max_levels"):
            run_ss(get_problem("always_fail"), 100, max_levels=max_levels)
        with pytest.raises(ConfigurationError, match="max_levels"):
            run_dss(get_problem("always_fail"), make_single_bin(2), 100, max_levels=max_levels)


# ------------------------------------------------------------------- dSS

def test_dss_single_bin_reduces_to_ss_on_trivial_problem():
    res = run_dss(get_problem("always_fail"), make_single_bin(2), 100, stream=RandomStream(10))
    assert res.pf_hat == 1.0
    assert res.levels == 1
    assert res.status == "converged"


def test_dss_dimension_mismatch():
    with pytest.raises(ConfigurationError):
        run_dss(get_problem("always_fail"), make_single_bin(3), 100, stream=RandomStream(0))


def test_dss_invariants_on_benchmark():
    ls = get_problem("piecewise_linear")
    for i in range(5):
        res = run_dss(ls, CASE1, 400, stream=RandomStream(11, i))
        # decomposition identity
        total = sum(o.pi_hat for o in res.bin_outcomes if o.status == "finished")
        assert abs(res.pf_hat - total) < 1e-12
        # residual bound identity
        assert res.unresolved_bound == pytest.approx(
            sum(o.bound for o in res.bin_outcomes), abs=1e-15
        )
        # frozen contributions never exceed their level budget
        for o in res.bin_outcomes:
            if o.status == "finished":
                assert o.pi_hat <= CASE1.probs[o.bin] * 0.2**o.level + 1e-15
                assert 0.0 <= o.p_final <= 1.0
        records = res.level_records
        # population conservation and nested thresholds, bin by bin
        for rec in records:
            assert sum(rec.counts) == 400
        for j in range(CASE1.n_bins):
            gj = [r.gamma[j] for r in records]
            assert all(a >= b - 1e-15 for a, b in zip(gj, gj[1:]))
        if res.status == "converged":
            last = records[-1]
            assert last.upper_bound <= 1e-3 * last.pf_finished
        # collected failure samples really fail
        gv = evaluate_batch(ls, res.failure_points)
        assert (gv <= 0).all()


def test_dss_eval_accounting():
    ls, calls = _counting(get_problem("piecewise_linear"))
    res = run_dss(ls, CASE1, 300, stream=RandomStream(12))
    assert res.n_evals == calls["n"]


def test_dss_squeezes_failure_free_bin_until_negligible():
    # the left half-plane never fails for g = 3 - theta_1, but its residual
    # budget halves each level, so the run still converges with that bin
    # left open and provably negligible
    ls = make_linear(3.0, dimension=2, name="one_sided")
    part = make_angular_sectors_2d((-math.pi / 2, math.pi / 2))  # right / left halves
    res = run_dss(ls, part, 300, stream=RandomStream(13))
    assert res.status == "converged"
    left = res.bin_outcomes[1]
    assert left.status == "unresolved"
    assert left.pi_hat == 0.0
    assert 0.0 < res.unresolved_bound <= 1e-3 * res.pf_hat
    assert res.pf_hat > 0


def test_dss_unfinished_bins_at_level_cap():
    ls = make_linear(3.0, dimension=2, name="one_sided")
    part = make_angular_sectors_2d((-math.pi / 2, math.pi / 2))
    res = run_dss(ls, part, 300, max_levels=2, stream=RandomStream(13))
    assert res.status == "max_levels"
    assert res.pf_hat == 0.0
    assert all(o.status == "unresolved" and o.bound > 0 for o in res.bin_outcomes)


def test_dss_starved_bin_is_written_off():
    # a sliver bin of probability ~8e-5 sees no samples at n=150 and is
    # dropped after three empty levels, with its mass kept as a bound
    ls = make_linear(4.0, dimension=2, name="one_sided")
    part = make_angular_sectors_2d((0.0, 0.0005, math.pi))
    res = run_dss(ls, part, 200, eps_tol=0.1, stream=RandomStream(14))
    sliver = res.bin_outcomes[0]
    assert sliver.status == "starved"
    assert sliver.bound == pytest.approx(part.probs[0] * 0.2**3, rel=1e-12)
    assert res.status == "converged"  # wide tolerance absorbs the lost mass
    assert res.unresolved_bound >= sliver.bound

    # the default tight tolerance cannot claim convergence past the lost mass
    res_tight = run_dss(ls, part, 200, eps_tol=1e-3, stream=RandomStream(14))
    assert res_tight.bin_outcomes[0].status == "starved"
    assert res_tight.status == "max_levels"


def test_ss_equals_single_bin_dss_stream_by_stream():
    # SS is dSS with one bin: on the same stream every field agrees, failure
    # points as bytes, except the label and the last record's seed count,
    # which SS gives as its failing points and dSS as 0
    single = make_single_bin(2)
    for name in ("piecewise_linear", "beta_points"):
        ls = get_problem(name)
        for i in range(15):
            ss = run_ss(ls, 500, stream=RandomStream(15, i))
            dss = run_dss(ls, single, 500, stream=RandomStream(15, i))
            assert ss.status == dss.status == "converged"  # neither at its level cap
            assert (ss.algorithm, dss.algorithm) == ("ss", "dss")
            *_, last = ss.level_records
            assert last.n_seeds == len(ss.failure_points) > 0
            assert dss.level_records[-1].n_seeds == 0
            as_dss = dataclasses.replace(
                ss, algorithm="dss",
                level_records=ss.level_records[:-1] + (dataclasses.replace(last, n_seeds=0),),
            )
            assert _fields(as_dss) == _fields(dss), (name, i)


def test_ss_forces_its_last_threshold_to_zero_at_the_level_cap():
    # the quantile of the capped level is still positive: SS finishes there
    # with its failing fraction and flags the run
    ls = make_linear(2.0, 2)
    res = run_ss(ls, 200, max_levels=2, stream=RandomStream(21))
    assert (res.status, res.levels) == ("max_levels", 2)
    assert res.level_records[0].gamma[0] > 0.0
    assert res.pf_hat == 0.2 * 0.09
    assert res.bin_outcomes[0] == BinOutcome(0, "finished", 1, 0.09, 0.2 * 0.09, 0.0)
    assert (tuple(res.level_records[-1].gamma), res.level_records[-1].n_seeds) == ((0.0,), 18)
    assert len(res.failure_points) == 18 and (ls.evaluator(res.failure_points) <= 0).all()

    res = run_ss(ls, 200, max_levels=1, stream=RandomStream(21))
    assert (res.status, res.levels, res.pf_hat) == ("max_levels", 1, 0.03)
    assert (tuple(res.level_records[-1].gamma), res.level_records[-1].n_seeds) == ((0.0,), 6)


def test_a_stalled_ss_run_returns_at_its_level_cap():
    # ties at the quantile make every particle a seed from level 5 on: each
    # level then ends without a chain step, and the run goes on to its
    # level cap in a loop (it used to recurse once a level and overflow)
    res = run_ss(get_problem("piecewise_linear"), 100, max_levels=3000,
                 stream=RandomStream(6, 3))
    assert (res.status, res.levels) == ("max_levels", 3000)
    assert {r.n_seeds for r in res.level_records[5:-1]} == {100}


def test_bad_g_stops_the_run_with_evaluation_error():
    # a column vector used to die in numpy indexing, and an all-NaN g
    # used to run on to a silent zero estimate
    column = LimitState("column_g", 2, lambda pts: 3.0 - pts[:, :1])
    with pytest.raises(EvaluationError, match="shape"):
        run_dss(column, CASE1, 100, stream=RandomStream(0))
    nan_g = LimitState("nan_g", 2, lambda pts: np.full(pts.shape[0], np.nan))
    for run in (lambda: run_ss(nan_g, 100), lambda: run_dss(nan_g, CASE1, 100)):
        with pytest.raises(EvaluationError, match="non-finite"):
            run()
    # a boolean mask used to read as 0 and 1 and converge at pf_hat 1.0 after
    # one level; a complex g used to lose its imaginary part
    mask = LimitState("mask", 2, lambda pts: pts[:, 0] > 3.0)
    with pytest.raises(EvaluationError, match="'mask' returned values of dtype bool"):
        run_ss(mask, 200, stream=RandomStream(1))
    complex_g = LimitState("complex_g", 2, lambda pts: 3.0 - pts[:, 0] + 1j)
    with pytest.raises(EvaluationError, match="'complex_g' returned values of dtype complex"):
        run_dss(complex_g, CASE1, 200, stream=RandomStream(1))


def test_dss_stream_defaults_to_seed_zero():
    ls = get_problem("piecewise_linear")
    res = run_dss(ls, CASE1, 200)
    ref = run_dss(ls, CASE1, 200, stream=RandomStream(0))
    assert (res.pf_hat, res.n_evals, res.level_records) == (
        ref.pf_hat, ref.n_evals, ref.level_records
    )


# Values below were recorded from the per-bin loop that preceded the
# vectorised threshold update; the update must reproduce them exactly.

def test_dss_pinned_run_on_case1_cuts():
    res = run_dss(get_problem("piecewise_linear"), CASE1, 400, stream=RandomStream(22))
    assert res.pf_hat == 3.859969254901962e-05
    assert res.n_evals == 3245
    assert res.status == "converged"
    gammas = [
        (0.7126061880230465, 0.786554498505104),
        (0.6318638969503326, 0.28280790373292763),
        (0.5701638914773112, 0.21456107938499944),
        (0.5051202999334744, 0.18182268695201792),
        (0.26952350531924774, 0.14759062818944865),
        (0.0, 0.09966827605209505),
        (0.0, 0.0742416329927098),
        (0.0, 0.039092958293691527),
        (0.0, 0.012283653071270328),
        (0.0, 0.0),
    ]
    counts = [(209, 191), (193, 207), (195, 205), (191, 209), (203, 197),
              (204, 196), (0, 400), (0, 400), (0, 400), (0, 400)]
    seeds = [81, 81, 80, 86, 83, 40, 120, 99, 81, 0]
    assert [tuple(r.gamma) for r in res.level_records] == gammas
    assert [tuple(r.counts) for r in res.level_records] == counts
    assert [r.n_seeds for r in res.level_records] == seeds
    assert [r.pf_finished for r in res.level_records] == [0.0] * 5 + [
        3.843137254901962e-05
    ] * 4 + [3.859969254901962e-05]
    assert [r.upper_bound for r in res.level_records] == [
        0.2, 0.04000000000000001, 0.008000000000000002, 0.0016000000000000003,
        0.0003200000000000001, 3.200000000000001e-05, 6.400000000000002e-06,
        1.2800000000000007e-06, 2.560000000000001e-07, 0.0,
    ]


def test_dss_pinned_run_on_orthants():
    res = run_dss(make_linear(2.5, 6), make_orthants(6), 2000, stream=RandomStream(21))
    assert res.pf_hat == 0.008961621189728907
    assert res.n_evals == 6396
    assert res.levels == 7
    assert res.status == "converged"
    assert sum(o.status == "finished" for o in res.bin_outcomes) == 32
    # 7 levels x 64 thresholds and counts, compared through their repr (re-recorded
    # for typed arrays after the records, as tuples, read the old digest)
    digest = hashlib.sha256(repr(res.level_records).encode()).hexdigest()
    assert digest == "2a8a96f7e30dc440eaaba394fdc9e068bb20486e6191441d444e510a2b8e1f47"


def test_a_level_record_holds_16_bytes_a_bin():
    # a record's thresholds and counts are two arrays of 8-byte numbers held
    # inline, so sys.getsizeof is all they take; as tuples they also held a
    # Python float a threshold, about 40 bytes a bin in all
    n_bins = 1024
    res = run_dss(make_linear(3.5, 10), make_orthants(10), 4000, max_levels=3,
                  stream=RandomStream(1))
    assert len(res.level_records) > 1
    two_empty = 2 * sys.getsizeof(array("d"))
    for rec in res.level_records:
        assert memoryview(rec.gamma).nbytes == memoryview(rec.counts).nbytes == 8 * n_bins
        assert sys.getsizeof(rec.gamma) + sys.getsizeof(rec.counts) <= two_empty + 16 * n_bins
        assert np.frombuffer(rec.counts, np.int64).sum() == 4000


# dSS reads about 0.8 of the exact value at 40 points a bin, with no warning;
# fails until that bias is found and removed (README's "Known limitations";
# ROADMAP item 10). SS on the same problem is the control.
@pytest.mark.parametrize("algorithm", [
    pytest.param("dss", marks=pytest.mark.xfail(
        strict=True, reason="dSS reads low at few points a bin")),
    "ss",
])
def test_mean_of_300_runs_is_within_3_standard_errors_of_exact(monkeypatch, algorithm):
    # 6-D, n = 2560: dSS over 64 orthants holds 40 points a bin; SS runs on one bin
    monkeypatch.setitem(limitstate._REGISTRY, "linear35_d6",
                        partial(make_linear, 3.5, 6, "linear35_d6"))
    cfg = ExperimentConfig("linear35_d6", algorithm, 2560, partition="orthants", runs=300,
                           seed=1)
    pf = np.array([r.pf_hat for r in replicate(cfg)])
    exact = stats.norm.cdf(-3.5)
    assert abs(pf.mean() - exact) <= 3 * pf.std(ddof=1) / math.sqrt(pf.size)
