"""Sampling primitives composed by the estimators.

Three building blocks live here: a Markov kernel whose invariant law is
the standard Gaussian truncated to a bin-wise acceptance region,
equal-weight residual resampling of seeds, and the interpolated
empirical quantile used to pick intermediate thresholds, computed for
every bin of a partition with a single sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .gaussian import RandomStream
from .limitstate import EvalCounter, LimitState, evaluate_batch, run_steps
from .partition import Partition


@dataclass(frozen=True)
class McmcConfig:
    """Autoregressive-proposal correlation.

    Proposals are xi = corr * theta + sqrt(1 - corr**2) * eps with
    eps ~ N(0, I); this transition leaves N(0, I) invariant, so under an
    indicator acceptance rule the chain targets the Gaussian truncated
    to the acceptance region. Larger corr means smaller moves and a
    higher acceptance rate.
    """

    corr: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.corr < 1.0:
            raise ConfigurationError(f"mcmc corr must lie in (0, 1), got {self.corr}")


@dataclass(frozen=True)
class AcceptRegion:
    """Bin-wise acceptance region {(j, g) : active[j] and g <= gamma[j]}."""

    active: np.ndarray
    gamma: np.ndarray

    def admits_bin(self, j: int) -> bool:
        return bool(self.active[j])

    def admits(self, j: int, gval: float) -> bool:
        return bool(self.active[j]) and gval <= self.gamma[j]

    @classmethod
    def everywhere(cls, n_bins: int = 1) -> "AcceptRegion":
        return cls(np.ones(n_bins, dtype=bool), np.full(n_bins, np.inf))

    @classmethod
    def global_threshold(cls, gamma: float) -> "AcceptRegion":
        """Single-bin region {g <= gamma}."""
        return cls(np.ones(1, dtype=bool), np.array([float(gamma)]))


def mcmc_step(
    point: np.ndarray,
    gval: float,
    bin_index: int,
    region: AcceptRegion,
    cfg: McmcConfig,
    stream: RandomStream,
    ls: LimitState,
    partition: Partition,
    ctr: EvalCounter,
):
    """One kernel step from a state that satisfies ``region``.

    A proposal landing in an inactive bin is rejected before any
    g-evaluation (bin membership is free, so the counter does not
    move); otherwise g is evaluated once and the proposal is accepted
    iff it satisfies the region. On rejection the current state is
    returned unchanged.

    Returns
    -------
    (point, gval, bin_index, accepted)
    """
    eps = stream.standard_normal(point.shape[0])
    proposal = cfg.corr * point + math.sqrt(1.0 - cfg.corr**2) * eps
    pbin = partition.classify(proposal)
    if not region.admits_bin(pbin):
        return point, gval, bin_index, False
    g_prop = float(evaluate_batch(ls, proposal[None, :], ctr)[0])
    if g_prop <= region.gamma[pbin]:
        return proposal, g_prop, pbin, True
    return point, gval, bin_index, False


def propagate_chains(
    seed_points: np.ndarray,
    seed_gvals: np.ndarray,
    seed_bins: np.ndarray,
    offspring: np.ndarray,
    region: AcceptRegion,
    cfg: McmcConfig,
    stream: RandomStream,
    ls: LimitState,
    partition: Partition,
    ctr: EvalCounter,
):
    """Grow one Markov chain per seed, all chains advanced in lockstep.

    A seed with offspring count c contributes itself plus c - 1 kernel
    steps; a seed with count 0 contributes nothing. The chains use the
    same proposal and acceptance rule as :func:`mcmc_step` (one batched
    normal draw per lockstep round), so the output population has
    exactly ``offspring.sum()`` members, every one satisfying
    ``region``. This is :func:`propagate_steps` with every round's
    proposals evaluated on ``ls``, counted by ``ctr``.

    Returns
    -------
    (points, gvals, bins) : the new population, chains stored contiguously.
    """
    steps = propagate_steps(
        seed_points, seed_gvals, seed_bins, offspring, region, cfg, stream, partition
    )
    return run_steps(steps, ls, ctr)


def propagate_steps(
    seed_points: np.ndarray,
    seed_gvals: np.ndarray,
    seed_bins: np.ndarray,
    offspring: np.ndarray,
    region: AcceptRegion,
    cfg: McmcConfig,
    stream: RandomStream,
    partition: Partition,
):
    """Step generator of :func:`propagate_chains`.

    Each lockstep round that has proposals in open bins yields them and
    expects their g-values back (``gv = yield points``); the generator
    returns the new population.
    """
    offspring = np.asarray(offspring, dtype=np.int64)
    if offspring.shape != (seed_points.shape[0],):
        raise ConfigurationError("offspring counts must match the number of seeds")
    n_out = int(offspring.sum())
    dim = seed_points.shape[1]
    out_points = np.empty((n_out, dim))
    out_gvals = np.empty(n_out)
    out_bins = np.empty(n_out, dtype=np.int64)

    starts = np.concatenate(([0], np.cumsum(offspring)[:-1]))
    keep = offspring > 0
    cur_p = np.array(seed_points[keep], dtype=float)
    cur_g = np.array(seed_gvals[keep], dtype=float)
    cur_b = np.array(seed_bins[keep], dtype=np.int64)
    pos = starts[keep].astype(np.int64)

    out_points[pos] = cur_p
    out_gvals[pos] = cur_g
    out_bins[pos] = cur_b
    pos = pos + 1
    left = offspring[keep] - 1

    scale = math.sqrt(1.0 - cfg.corr**2)
    rows = (left > 0).nonzero()[0]  # chains still growing
    while rows.size:
        eps = stream.standard_normal((rows.size, dim))
        proposals = cfg.corr * cur_p[rows] + scale * eps
        pbins = partition.classify(proposals)
        ok = region.active[pbins].nonzero()[0]
        if ok.size:
            g_prop = yield proposals[ok]
            hit = g_prop <= region.gamma[pbins[ok]]
            moved = ok[hit]
            acc = rows[moved]
            cur_p[acc] = proposals[moved]
            cur_g[acc] = g_prop[hit]
            cur_b[acc] = pbins[moved]
        at = pos[rows]
        out_points[at] = cur_p[rows]
        out_gvals[at] = cur_g[rows]
        out_bins[at] = cur_b[rows]
        pos[rows] = at + 1
        left[rows] -= 1
        rows = rows[left[rows] > 0]
    return out_points, out_gvals, out_bins


def residual_resample(n_seeds: int, n_target: int, stream: RandomStream) -> np.ndarray:
    """Equal-weight residual resampling: offspring counts for each seed.

    Every seed receives floor(n_target / n_seeds) offspring
    deterministically; the remaining r = n_target - n_seeds * floor(...)
    are assigned by a multinomial draw with equal probabilities. Counts
    always sum to ``n_target``.
    """
    if n_seeds < 1:
        raise ConfigurationError("residual resampling needs at least one seed")
    if n_target < 1:
        raise ConfigurationError("target population must be at least 1")
    base = n_target // n_seeds
    counts = np.full(n_seeds, base, dtype=np.int64)
    r = n_target - base * n_seeds
    if r > 0:
        counts += stream.multinomial(r, np.full(n_seeds, 1.0 / n_seeds))
    return counts


# offsets of x_(i) and x_(i+1) from position start + i of a bin's sorted values
_LO_HI = np.array([[-1], [0]])


def binned_quantiles(values, bins, n_bins: int, rho: float) -> np.ndarray:
    """Quantile of order ``rho`` of each bin's values, by one sort of the population.

    Entry j equals ``interp_quantile(values[bins == j], rho)`` bit for
    bit, and is NaN for a bin with no values. The population is sorted
    once by (bin, value); per-bin offsets come from the bin counts, and
    the interpolation is done for all bins at once with the arithmetic
    of :func:`interp_quantile`.
    """
    if not 0.0 < rho < 1.0:
        raise ConfigurationError(f"quantile order must lie in (0, 1), got {rho}")
    values = np.asarray(values, dtype=float)
    bins = np.asarray(bins, dtype=np.int64)
    if values.ndim != 1 or bins.shape != values.shape:
        raise ConfigurationError("values and bins must be 1-D arrays of equal length")
    if values.size == 0:
        return np.full(n_bins, np.nan)
    if bins.min() < 0:
        raise ConfigurationError(f"bin index {bins.min()} is negative")
    k = np.bincount(bins, minlength=n_bins)
    if k.size != n_bins:
        raise ConfigurationError(f"bin index {k.size - 1} is out of range for {n_bins} bins")
    # value order, then a stable sort by bin, which is a radix sort for
    # up to 2**16 bins
    order = values.argsort()
    by_bin = bins[order].astype(np.uint16 if n_bins <= 1 << 16 else np.int64)
    x = values[order[by_bin.argsort(kind="stable")]]
    # with h = (k - 1) * rho + 1 and i = floor(h) as in interp_quantile,
    # x_(i) of bin j sits at position end_j - k_j + i - 1 of x
    h = (k - 1) * rho + 1.0
    i = h.astype(np.int64)  # h > 0, so truncation is floor
    x_lo, x_hi = x.take(k.cumsum() - k + i + _LO_HI, mode="clip")
    # i == k is the round-up guard (and covers k == 1); it also holds
    # for empty bins, whose entries are then replaced by NaN
    q = np.where(i < k, x_lo + (h - i) * (x_hi - x_lo), x_lo)
    q[k == 0] = np.nan
    return q


def interp_quantile(values, rho: float) -> float:
    """Quantile of order ``rho`` by linear interpolation of the empirical CDF.

    With sorted values x_(1) <= ... <= x_(k) and h = (k - 1) * rho + 1,
    returns x_(floor(h)) + (h - floor(h)) * (x_(floor(h)+1) - x_(floor(h))).
    A single value is returned as-is. This is the one-bin case of
    :func:`binned_quantiles`.
    """
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size == 0:
        raise ConfigurationError("cannot take the quantile of an empty sample")
    return float(binned_quantiles(vals, np.zeros(vals.size, dtype=np.int64), 1, rho)[0])
