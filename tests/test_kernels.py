from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats
from test_lockstep import _Calls

from dirss import (
    ConfigurationError,
    LimitState,
    McmcConfig,
    RandomStream,
    make_halfspace,
    make_single_bin,
)
from dirss.kernels import (
    evaluate_joined,
    interp_quantile,
    propagate_chains,
    residual_resample,
)


def _quantile(values, rho):
    """The quantile of one bin that holds all ``values``."""
    values = np.asarray(values, dtype=float)
    return float(interp_quantile(values, np.zeros(values.size, np.int64),
                                 np.array([values.size]), rho)[0])


def _resample(m, n, stream):
    """The offspring counts of one run with ``m`` seeds."""
    return residual_resample(np.array([m]), n, [stream])


# ---------------------------------------------------------------- quantile

def test_quantile_interpolation_oracle():
    assert _quantile(range(1, 11), 0.2) == pytest.approx(2.8, abs=1e-12)
    assert _quantile([7.0] * 9, 0.37) == 7.0
    assert _quantile([5.0], 0.2) == 5.0


def test_quantile_matches_independent_implementation():
    # numpy's 'linear' method uses the same h = (k-1)*rho + 1 convention
    rng = np.random.default_rng(5)
    for _ in range(50):
        vals = rng.normal(size=rng.integers(2, 40))
        rho = rng.uniform(0.01, 0.99)
        assert _quantile(vals, rho) == pytest.approx(
            float(np.quantile(vals, rho)), abs=1e-12
        )


def test_quantile_monotone_in_rho():
    vals = np.random.default_rng(6).normal(size=31)
    qs = [_quantile(vals, r) for r in np.linspace(0.05, 0.95, 19)]
    assert all(a <= b + 1e-15 for a, b in zip(qs, qs[1:]))


def test_quantile_affine_equivariance():
    vals = np.random.default_rng(7).normal(size=17)
    for rho in (0.1, 0.2, 0.5, 0.9):
        q = _quantile(vals, rho)
        assert _quantile(3.5 * vals - 2.0, rho) == pytest.approx(3.5 * q - 2.0)


def _sorted_quantile(values, rho):
    # the interpolated quantile written out on one sorted sample
    x = np.sort(values)
    k = x.size
    h = (k - 1) * rho + 1.0
    i = math.floor(h)
    if k == 1 or i >= k:
        return x[-1]
    return x[i - 1] + (h - i) * (x[i] - x[i - 1])


@pytest.mark.parametrize("rho", [0.2, 0.5, 1.0 - 1e-12])
def test_binned_quantiles_equal_per_bin_interp_quantile(rho):
    # exact equality: the vectorised update must not move any threshold
    rng = np.random.default_rng(8)
    sizes = set()
    for trial in range(300):
        n = int(rng.integers(1, 80))
        n_bins = int(rng.integers(1, 12))
        if trial % 2:
            vals = rng.normal(size=n)
        else:  # heavy ties
            vals = rng.integers(-3, 4, size=n).astype(float)
        # skewed bin weights leave some bins empty and some with one member
        bins = rng.choice(n_bins, size=n, p=rng.dirichlet(np.full(n_bins, 0.3)))
        q = interp_quantile(vals, bins, np.bincount(bins, minlength=n_bins), rho)
        assert q.shape == (n_bins,)
        for j in range(n_bins):
            members = vals[bins == j]
            sizes.add(min(members.size, 2))
            if members.size == 0:
                assert np.isnan(q[j])
            else:
                assert q[j] == _quantile(members, rho) == _sorted_quantile(members, rho)
    assert sizes == {0, 1, 2}  # empty, single-member and larger bins all occurred


@pytest.mark.parametrize("n_bins", [40, 70_010])
def test_binned_quantiles_on_many_points_with_ties(n_bins):
    # interp_quantile composes its two sorts' orders in place, with a take
    # that reads each index before it writes over it: on many more points than
    # a block of 4096, with repeated values, every bin must still get the
    # quantile of its own sorted values, in the radix range and beyond it
    rng = np.random.default_rng(10)
    n = 50_000
    vals = np.round(rng.normal(size=n), 1)  # about 80 distinct values
    bins = rng.integers(n_bins - 40, n_bins, size=n)
    counts = np.bincount(bins, minlength=n_bins)
    for rho in (0.2, 0.5):
        q = interp_quantile(vals, bins, counts, rho)
        for j in range(n_bins - 40, n_bins):
            assert q[j] == _sorted_quantile(vals[bins == j], rho)
        assert np.isnan(q[: n_bins - 40]).all()


def test_binned_quantiles_beyond_radix_range():
    # more than 2**16 bins takes the general stable sort
    rng = np.random.default_rng(9)
    vals = rng.normal(size=300)
    bins = rng.integers(70_000, 70_010, size=300)
    q = interp_quantile(vals, bins, np.bincount(bins, minlength=70_010), 0.2)
    for j in range(70_000, 70_010):
        assert q[j] == _quantile(vals[bins == j], 0.2)
    assert np.isnan(q[:70_000]).all()


# ------------------------------------------------------------- resampling

def test_residual_resample_exact_when_divisible():
    counts = _resample(5, 10, RandomStream(1))
    np.testing.assert_array_equal(counts, [2, 2, 2, 2, 2])


def test_residual_resample_structure():
    stream = RandomStream(2)
    for m, n in [(4, 10), (3, 10), (7, 100), (150, 100), (1, 13)]:
        base, r = n // m, n % m
        for _ in range(20):
            counts = _resample(m, n, stream)
            assert counts.sum() == n
            assert counts.min() >= base
            assert counts.max() <= base + r


def test_residual_resample_mean_counts():
    # expected offspring per seed is n/m; the multinomial remainder has
    # per-seed variance r * (1/m) * (1 - 1/m)
    m, n, reps = 3, 10, 10**5
    stream = RandomStream(3)
    total = np.zeros(m)
    for _ in range(reps):
        total += _resample(m, n, stream)
    sigma = math.sqrt(1.0 * (1 / m) * (1 - 1 / m) / reps)
    assert np.abs(total / reps - n / m).max() < 4.0 * sigma


def test_stacked_resample_equals_residual_resample_run_by_run():
    # m == n, m dividing n, m == 1 and a remainder, then random (m, n)
    rng = np.random.default_rng(8)
    cases = [([100, 25, 1, 37, 100, 3], 100), ([1], 1), ([7, 7], 7), ([150, 60], 100)]
    for _ in range(30):
        n = int(rng.integers(1, 300))
        cases.append((rng.integers(1, 2 * n + 1, size=rng.integers(1, 9)).tolist(), n))
    for ms, n in cases:
        streams = [RandomStream(9, i) for i in range(len(ms))]
        counts = residual_resample(np.array(ms), n, streams)
        ends = np.cumsum(ms)
        for i, m in enumerate(ms):
            alone = RandomStream(9, i)
            expected = _resample(m, n, alone)
            # the formula the resampler had before it took several runs
            old = RandomStream(9, i)
            base = np.full(m, n // m, dtype=np.int64)
            if n % m:
                base += old.multinomial(n % m, np.full(m, 1.0 / m))
            got = counts[ends[i] - m : ends[i]]
            assert got.dtype == expected.dtype == base.dtype
            assert got.tobytes() == expected.tobytes() == base.tobytes()
            # each stream is left where residual_resample leaves it
            nxt = [s.standard_normal(4).tobytes() for s in (streams[i], alone, old)]
            assert nxt[0] == nxt[1] == nxt[2]


# ------------------------------------------------------------ Markov step

def _theta_problem(dimension: int = 1):
    # g(theta) = theta_1, so regions {g <= c} truncate the first coordinate above at c
    return LimitState("theta", dimension, lambda pts: pts[:, 0])


def _below(gamma: float) -> np.ndarray:
    """Single-bin threshold table {g <= gamma}."""
    return np.array([gamma])


def _chains(seeds, steps, region, corr, stream, calls=None):
    """``steps`` kernel steps from each seed row on the single-bin slab; the
    states as (chains, steps + 1, dim), each chain's seed first. ``calls``
    records the g-calls of the steps."""
    ls = _theta_problem(seeds.shape[1])
    m = seeds.shape[0]
    pts, gv, _ = propagate_chains(
        seeds, ls.evaluator(seeds), np.zeros(m, dtype=np.int64), np.full(m, steps + 1),
        region, McmcConfig(corr), stream, (_Calls() if calls is None else calls).wrap(ls),
        make_single_bin(seeds.shape[1]),
    )
    return pts.reshape(m, steps + 1, -1), gv.reshape(m, steps + 1)


def test_step_accepts_everything_on_free_region():
    calls = _Calls()
    pts, _ = _chains(np.zeros((5, 1)), 100, _below(np.inf), 0.8, RandomStream(8), calls)
    # indicator acceptance on the whole space never rejects: every state moves
    assert (np.diff(pts, axis=1) != 0).all()
    assert sum(calls.sizes) == 500


def test_step_preserves_constraint():
    gamma = 1.0
    calls = _Calls()
    pts, gv = _chains(np.full((20, 1), 0.2), 100, _below(gamma), 0.8, RandomStream(9), calls)
    assert (gv <= gamma).all()
    assert (pts[..., 0] <= gamma).all()
    # the chains moved
    assert sum(calls.sizes) > 0 and (np.diff(pts, axis=1) != 0).any()


def test_mean_squared_jump_decreases_with_corr():
    # for the stationary unconstrained chain, E|jump|^2 = 2 n (1 - corr):
    # 40 chains of 100 steps from stationary seeds give 4000 jumps
    msj = []
    for corr in (0.2, 0.5, 0.8):
        stream = RandomStream(11)
        seeds = stream.standard_normal((40, 2))
        pts, _ = _chains(seeds, 100, _below(np.inf), corr, stream)
        msj.append(np.mean(np.sum(np.diff(pts, axis=1) ** 2, axis=2)))
        assert msj[-1] == pytest.approx(2.0 * 2 * (1 - corr), rel=0.1)
    assert msj[0] > msj[1] > msj[2]


# ------------------------------------------------------------- chain batch

def test_propagate_chains_population_and_region():
    ls = _theta_problem()
    part = make_single_bin(1)
    gamma = 0.5
    region = _below(gamma)
    stream = RandomStream(13)
    seeds = np.linspace(-2.0, 0.4, 12)[:, None]
    gvals = ls.evaluator(seeds)
    bins = np.zeros(12, dtype=np.int64)
    offspring = _resample(12, 50, stream)
    pts, gv, bn = propagate_chains(
        seeds, gvals, bins, offspring, region, McmcConfig(0.8), stream, ls, part
    )
    assert pts.shape == (50, 1)
    assert (gv <= gamma).all()
    np.testing.assert_allclose(gv, ls.evaluator(pts))
    # seeds are retained as chain heads
    starts = np.concatenate(([0], np.cumsum(offspring)[:-1]))
    np.testing.assert_allclose(pts[starts[offspring > 0]], seeds[offspring > 0])


def test_propagate_chains_drops_zero_count_seeds():
    ls = _theta_problem()
    part = make_single_bin(1)
    region = _below(10.0)
    seeds = np.array([[0.0], [99.0], [1.0]])  # middle seed dropped
    gvals = ls.evaluator(seeds)
    bins = np.zeros(3, dtype=np.int64)
    pts, _, _ = propagate_chains(
        seeds, gvals, bins, np.array([2, 0, 3]), region,
        McmcConfig(0.8), RandomStream(14), ls, part,
    )
    assert pts.shape == (5, 1)
    assert not np.any(pts == 99.0)
    with pytest.raises(ConfigurationError, match="positive offspring"):
        propagate_chains(seeds, gvals, bins, np.zeros(3, np.int64), region,
                         McmcConfig(0.8), RandomStream(14), ls, part)
    with pytest.raises(ConfigurationError, match="number of seeds"):
        propagate_chains(seeds, gvals, bins, np.array([2, 3]), region,
                         McmcConfig(0.8), RandomStream(14), ls, part)


def test_propagate_chains_deterministic():
    ls = _theta_problem()
    part = make_single_bin(1)
    region = _below(1.0)
    seeds = np.zeros((5, 1))
    gvals = ls.evaluator(seeds)
    bins = np.zeros(5, dtype=np.int64)
    offspring = np.array([3, 1, 4, 0, 2])
    out1 = propagate_chains(seeds, gvals, bins, offspring, region,
                            McmcConfig(0.8), RandomStream(15), ls, part)
    out2 = propagate_chains(seeds, gvals, bins, offspring, region,
                            McmcConfig(0.8), RandomStream(15), ls, part)
    for a, b in zip(out1, out2):
        np.testing.assert_array_equal(a, b)


def test_chains_match_truncated_normal():
    # the kernel law through the code the estimators run: one seed, one
    # long chain constrained to {theta <= 1}; thinned states must match the
    # analytic truncated-normal law
    ls = _theta_problem()
    region = _below(1.0)
    steps = 20000
    pts, gv, _ = propagate_chains(
        np.zeros((1, 1)), np.zeros(1), np.zeros(1, dtype=np.int64), np.array([steps + 1]),
        region, McmcConfig(0.8), RandomStream(12), ls, make_single_bin(1),
    )
    assert (gv <= 1.0).all()
    kept = pts[1000::20, 0]
    phi_b = stats.norm.cdf(1.0)

    def truncated_cdf(x):
        return stats.norm.cdf(np.minimum(x, 1.0)) / phi_b

    result = stats.kstest(kept, truncated_cdf)
    assert result.pvalue > 0.001


def test_chain_rejection_into_closed_bin_is_free():
    # two halfspace bins, the positive side closed: proposals landing there
    # are rejected without an evaluation
    sizes = []

    def g(pts):
        sizes.append(pts.shape[0])
        return pts[:, 0]

    ls = LimitState("theta", 2, g)
    part = make_halfspace(1, 2)
    region = np.array([np.inf, -np.inf])
    pts, gv, bins = propagate_chains(
        np.array([[-0.5, 0.0]]), np.array([-0.5]), np.zeros(1, dtype=np.int64),
        np.array([1001]), region, McmcConfig(0.5), RandomStream(10), ls, part,
    )
    assert (bins == 0).all() and (pts[:, 0] < 0).all()  # never enters the closed bin
    assert all(size == 1 for size in sizes)
    assert 0 < sum(sizes) < 1000  # some proposals landed in the closed bin for free


@pytest.mark.parametrize("table", [np.array([np.inf]), np.full(3, np.inf)])
def test_threshold_table_must_have_one_entry_a_bin(table):
    # a table of the wrong width is refused before any g-call: one entry
    # on two bins used to open both
    def g(pts):
        raise AssertionError("g called")

    calls = _Calls()
    with pytest.raises(ConfigurationError, match=rf"shape \({table.size},\) does not fit"):
        propagate_chains(
            np.array([[-0.5, 0.0]]), np.array([-0.5]), np.zeros(1, dtype=np.int64),
            np.array([50]), table, McmcConfig(0.5), RandomStream(3),
            calls.wrap(LimitState("never", 2, g)), make_halfspace(1, 2),
        )
    assert sum(calls.sizes) == 0


def test_level_without_steps_makes_no_g_call_and_no_draw():
    def g(pts):
        raise AssertionError("g called")

    calls = _Calls()
    ls = calls.wrap(LimitState("never", 1, g))
    seeds = np.array([[0.0], [1.0], [2.0], [3.0]])
    stream = RandomStream(5)
    pts, gv, bins = propagate_chains(
        seeds, seeds[:, 0], np.zeros(4, dtype=np.int64), np.array([1, 0, 1, 1]),
        _below(10.0), McmcConfig(0.8), stream, ls,
        make_single_bin(1),
    )
    np.testing.assert_array_equal(pts, seeds[[0, 2, 3]])
    assert sum(calls.sizes) == 0 and gv.dtype == float and bins.dtype == np.int64
    # the stream did not move
    assert stream.standard_normal(3).tobytes() == RandomStream(5).standard_normal(3).tobytes()


# ------------------------------------------------------------ joined g-call

def test_joined_call_charges_each_run_its_own_points():
    # runs 4, 0 and 2 bring 3, 2 and 4 points, and g faults on run 0's only
    calls = _Calls()
    ls = calls.wrap(LimitState("theta", 1, lambda pts: np.where(pts[:, 0] < 0, np.nan, pts[:, 0])))
    points = np.array([1.0, 2.0, 3.0, -1.0, -2.0, 4.0, 5.0, 6.0, 7.0])[:, None]
    runs, sizes = np.array([4, 0, 2]), np.array([3, 2, 4])
    n_evals = np.array([30, 10, 20, 0, 40])
    gv, failed = evaluate_joined(ls, points, runs, sizes, n_evals)
    # the shared call fails and is charged to no run; then each run's points
    # go to g alone, and each run is charged its own
    assert calls.sizes == [9, 3, 2, 4]
    assert n_evals.tolist() == [32, 10, 24, 0, 43]
    assert list(failed) == [0] and failed[0].n_evals == 32  # its earlier 30, and its 2
    assert "2 non-finite values" in str(failed[0])
    np.testing.assert_array_equal(np.r_[gv[:3], gv[5:]], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    # a shared call that succeeds is one g-call, and charges each run its points
    calls.sizes.clear()
    gv, failed = evaluate_joined(ls, points[[5, 6, 0, 1, 2]], runs[[0, 2]], np.array([2, 3]),
                                 n_evals)
    assert calls.sizes == [5] and not failed
    assert n_evals.tolist() == [32, 10, 27, 0, 45]
    np.testing.assert_array_equal(gv, [4.0, 5.0, 1.0, 2.0, 3.0])


def test_one_draw_of_a_level_equals_its_round_draws():
    # small runs draw a level's normals in one call, large runs a round's at a
    # time; bit for bit, the one draw is the concatenation of the per-round
    # draws of the same sizes, and the stream goes on from the same place
    rng = np.random.default_rng(3)
    for pattern in range(200):
        dim = int(rng.integers(1, 5))
        rounds = rng.integers(0, 60, size=int(rng.integers(1, 12)))
        joined = np.empty((int(rounds.sum()), dim))
        whole = RandomStream(pattern, 7)
        whole.standard_normal(out=joined)
        stream = RandomStream(pattern, 7)
        parts = [stream.standard_normal((int(r), dim)) for r in rounds]
        assert np.concatenate(parts).tobytes() == joined.tobytes()
        pvals = np.full(5, 0.2)
        assert stream.multinomial(7, pvals).tolist() == whole.multinomial(7, pvals).tolist()


def test_mcmc_config_validation():
    with pytest.raises(ConfigurationError):
        McmcConfig(0.0)
    with pytest.raises(ConfigurationError):
        McmcConfig(1.0)
