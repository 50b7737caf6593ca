from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from dirss import (
    ConfigurationError,
    EvalCounter,
    LimitState,
    McmcConfig,
    RandomStream,
    make_halfspace,
    make_single_bin,
)
from dirss.kernels import (
    binned_quantiles,
    interp_quantile,
    propagate_chains,
    residual_resample,
    stacked_residual_resample,
)


# ---------------------------------------------------------------- quantile

def test_quantile_interpolation_oracle():
    assert interp_quantile(range(1, 11), 0.2) == pytest.approx(2.8, abs=1e-12)
    assert interp_quantile([7.0] * 9, 0.37) == 7.0
    assert interp_quantile([5.0], 0.2) == 5.0


def test_quantile_matches_independent_implementation():
    # numpy's 'linear' method uses the same h = (k-1)*rho + 1 convention
    rng = np.random.default_rng(5)
    for _ in range(50):
        vals = rng.normal(size=rng.integers(2, 40))
        rho = rng.uniform(0.01, 0.99)
        assert interp_quantile(vals, rho) == pytest.approx(
            float(np.quantile(vals, rho)), abs=1e-12
        )


def test_quantile_monotone_in_rho():
    vals = np.random.default_rng(6).normal(size=31)
    qs = [interp_quantile(vals, r) for r in np.linspace(0.05, 0.95, 19)]
    assert all(a <= b + 1e-15 for a, b in zip(qs, qs[1:]))


def test_quantile_affine_equivariance():
    vals = np.random.default_rng(7).normal(size=17)
    for rho in (0.1, 0.2, 0.5, 0.9):
        q = interp_quantile(vals, rho)
        assert interp_quantile(3.5 * vals - 2.0, rho) == pytest.approx(3.5 * q - 2.0)


def test_quantile_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        interp_quantile([], 0.2)
    with pytest.raises(ConfigurationError):
        interp_quantile([1.0], 0.0)
    with pytest.raises(ConfigurationError):
        interp_quantile([1.0], 1.0)


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
        q = binned_quantiles(vals, bins, n_bins, rho)
        assert q.shape == (n_bins,)
        for j in range(n_bins):
            members = vals[bins == j]
            sizes.add(min(members.size, 2))
            if members.size == 0:
                assert np.isnan(q[j])
            else:
                assert q[j] == interp_quantile(members, rho) == _sorted_quantile(members, rho)
    assert sizes == {0, 1, 2}  # empty, single-member and larger bins all occurred
    # a population of no values leaves every bin empty
    assert np.isnan(binned_quantiles([], [], 5, rho)).tolist() == [True] * 5


def test_binned_quantiles_beyond_radix_range():
    # more than 2**16 bins takes the general stable sort
    rng = np.random.default_rng(9)
    vals = rng.normal(size=300)
    bins = rng.integers(70_000, 70_010, size=300)
    q = binned_quantiles(vals, bins, 70_010, 0.2)
    for j in range(70_000, 70_010):
        assert q[j] == interp_quantile(vals[bins == j], 0.2)
    assert np.isnan(q[:70_000]).all()


def test_binned_quantiles_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        binned_quantiles([1.0, 2.0], [0, 3], 2, 0.2)
    with pytest.raises(ConfigurationError, match="negative"):
        binned_quantiles([1.0, 2.0], [-1, 0], 2, 0.2)
    with pytest.raises(ConfigurationError):
        binned_quantiles([1.0, 2.0], [0], 2, 0.2)
    with pytest.raises(ConfigurationError):
        binned_quantiles([1.0], [0], 1, 1.0)


# ------------------------------------------------------------- resampling

def test_residual_resample_exact_when_divisible():
    counts = residual_resample(5, 10, RandomStream(1))
    np.testing.assert_array_equal(counts, [2, 2, 2, 2, 2])


def test_residual_resample_structure():
    stream = RandomStream(2)
    for m, n in [(4, 10), (3, 10), (7, 100), (150, 100), (1, 13)]:
        base, r = n // m, n % m
        for _ in range(20):
            counts = residual_resample(m, n, stream)
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
        total += residual_resample(m, n, stream)
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
        counts = stacked_residual_resample(ms, n, streams)
        ends = np.cumsum(ms)
        for i, m in enumerate(ms):
            alone = RandomStream(9, i)
            expected = residual_resample(m, n, alone)
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
    with pytest.raises(ConfigurationError):
        stacked_residual_resample([3, 0], 10, [RandomStream(4)] * 2)


def test_residual_resample_needs_seeds():
    with pytest.raises(ConfigurationError):
        residual_resample(0, 10, RandomStream(4))
    with pytest.raises(ConfigurationError):
        residual_resample(3, 0, RandomStream(4))


# ------------------------------------------------------------ Markov step

def _theta_problem(dimension: int = 1):
    # g(theta) = theta_1, so regions {g <= c} truncate the first coordinate above at c
    return LimitState("theta", dimension, lambda pts: pts[:, 0])


def _below(gamma: float) -> np.ndarray:
    """Single-bin threshold table {g <= gamma}."""
    return np.array([gamma])


def _chains(seeds, steps, region, corr, stream, ctr=None):
    """``steps`` kernel steps from each seed row on the single-bin slab; the
    states as (chains, steps + 1, dim), each chain's seed first."""
    ls = _theta_problem(seeds.shape[1])
    m = seeds.shape[0]
    pts, gv, _ = propagate_chains(
        seeds, ls.evaluator(seeds), np.zeros(m, dtype=np.int64), np.full(m, steps + 1),
        region, McmcConfig(corr), stream, ls, make_single_bin(seeds.shape[1]),
        EvalCounter() if ctr is None else ctr,
    )
    return pts.reshape(m, steps + 1, -1), gv.reshape(m, steps + 1)


def test_step_accepts_everything_on_free_region():
    ctr = EvalCounter()
    pts, _ = _chains(np.zeros((5, 1)), 100, _below(np.inf), 0.8, RandomStream(8), ctr)
    # indicator acceptance on the whole space never rejects: every state moves
    assert (np.diff(pts, axis=1) != 0).all()
    assert ctr.count == 500


def test_step_preserves_constraint():
    gamma = 1.0
    ctr = EvalCounter()
    pts, gv = _chains(np.full((20, 1), 0.2), 100, _below(gamma), 0.8, RandomStream(9), ctr)
    assert (gv <= gamma).all()
    assert (pts[..., 0] <= gamma).all()
    # the chains moved
    assert ctr.count > 0 and (np.diff(pts, axis=1) != 0).any()


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
    offspring = residual_resample(12, 50, stream)
    ctr = EvalCounter()
    pts, gv, bn = propagate_chains(
        seeds, gvals, bins, offspring, region, McmcConfig(0.8), stream, ls, part, ctr
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
        McmcConfig(0.8), RandomStream(14), ls, part, EvalCounter(),
    )
    assert pts.shape == (5, 1)
    assert not np.any(pts == 99.0)
    with pytest.raises(ConfigurationError, match="positive offspring"):
        propagate_chains(seeds, gvals, bins, np.zeros(3, np.int64), region,
                         McmcConfig(0.8), RandomStream(14), ls, part, EvalCounter())
    with pytest.raises(ConfigurationError, match="number of seeds"):
        propagate_chains(seeds, gvals, bins, np.array([2, 3]), region,
                         McmcConfig(0.8), RandomStream(14), ls, part, EvalCounter())


def test_propagate_chains_deterministic():
    ls = _theta_problem()
    part = make_single_bin(1)
    region = _below(1.0)
    seeds = np.zeros((5, 1))
    gvals = ls.evaluator(seeds)
    bins = np.zeros(5, dtype=np.int64)
    offspring = np.array([3, 1, 4, 0, 2])
    out1 = propagate_chains(seeds, gvals, bins, offspring, region,
                            McmcConfig(0.8), RandomStream(15), ls, part, EvalCounter())
    out2 = propagate_chains(seeds, gvals, bins, offspring, region,
                            McmcConfig(0.8), RandomStream(15), ls, part, EvalCounter())
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
        region, McmcConfig(0.8), RandomStream(12), ls, make_single_bin(1), EvalCounter(),
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
    ctr = EvalCounter()
    pts, gv, bins = propagate_chains(
        np.array([[-0.5, 0.0]]), np.array([-0.5]), np.zeros(1, dtype=np.int64),
        np.array([1001]), region, McmcConfig(0.5), RandomStream(10), ls, part, ctr,
    )
    assert (bins == 0).all() and (pts[:, 0] < 0).all()  # never enters the closed bin
    assert sum(sizes) == ctr.count and all(size == 1 for size in sizes)
    assert 0 < ctr.count < 1000  # some proposals landed in the closed bin for free


def test_level_without_steps_makes_no_g_call_and_no_draw():
    def g(pts):
        raise AssertionError("g called")

    ls = LimitState("never", 1, g)
    seeds = np.array([[0.0], [1.0], [2.0], [3.0]])
    ctr, stream = EvalCounter(), RandomStream(5)
    pts, gv, bins = propagate_chains(
        seeds, seeds[:, 0], np.zeros(4, dtype=np.int64), np.array([1, 0, 1, 1]),
        _below(10.0), McmcConfig(0.8), stream, ls,
        make_single_bin(1), ctr,
    )
    np.testing.assert_array_equal(pts, seeds[[0, 2, 3]])
    assert ctr.count == 0 and gv.dtype == float and bins.dtype == np.int64
    # the stream did not move
    assert stream.standard_normal(3).tobytes() == RandomStream(5).standard_normal(3).tobytes()


def test_one_draw_of_a_level_equals_its_round_draws():
    # the chains draw a level's normals in one call; bit for bit, that is
    # the concatenation of the per-round draws of the same sizes
    rng = np.random.default_rng(3)
    for pattern in range(200):
        dim = int(rng.integers(1, 5))
        rounds = rng.integers(0, 60, size=int(rng.integers(1, 12)))
        joined = np.empty((int(rounds.sum()), dim))
        RandomStream(pattern, 7).standard_normal(out=joined)
        stream = RandomStream(pattern, 7)
        parts = [stream.standard_normal((int(r), dim)) for r in rounds]
        assert np.concatenate(parts).tobytes() == joined.tobytes()


def test_mcmc_config_validation():
    with pytest.raises(ConfigurationError):
        McmcConfig(0.0)
    with pytest.raises(ConfigurationError):
        McmcConfig(1.0)
