"""Sampling primitives composed by the estimators, and the loop that runs them.

Here live a Markov kernel whose invariant law is the standard Gaussian
truncated to a bin-wise acceptance region, run for a group of runs in
one slab by the lockstep loop :func:`run_steps`; equal-weight residual
resampling of seeds; and the interpolated empirical quantile that picks
intermediate thresholds, for every bin of a partition with one sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .gaussian import RandomStream
from .limitstate import EvalCounter, LimitState, evaluate_batch
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
    steps; a seed with count 0 contributes nothing. A step proposes
    ``corr * state + sqrt(1 - corr**2) * eps``; a proposal landing in an
    inactive bin is rejected before any g-evaluation (bin membership is
    free), any other is evaluated once and accepted iff it satisfies
    ``region``; a rejected step repeats the current state. The output
    population has exactly ``offspring.sum()`` members, every one
    satisfying ``region``. The level's normals come from one draw of
    ``stream``; each round evaluates its proposals in open bins on ``ls``
    in one g-call, counted by ``ctr`` (the slab of :func:`run_steps`).
    Chains that take no step return at once, without a draw or a g-call.

    Returns
    -------
    (points, gvals, bins) : the new population, chains stored contiguously.
    """
    offspring = np.asarray(offspring, dtype=np.int64)
    if offspring.shape != (seed_points.shape[0],):
        raise ConfigurationError("offspring counts must match the number of seeds")
    keep = offspring > 0
    seeds, counts = (seed_points[keep], seed_gvals[keep], seed_bins[keep]), offspring[keep]
    if (counts <= 1).all():
        return seeds

    def chains():
        return (yield ChainRequest(*seeds, counts, region, cfg, stream, partition))

    return run_alone([chains()], ls, ctr, int(counts.sum()))


@dataclass(frozen=True)
class ChainRequest:
    """A level's Markov chains as a run requests them, to get its new
    population back: the seeds with offspring ``counts`` > 0, one at least 2."""

    points: np.ndarray
    gvals: np.ndarray
    bins: np.ndarray
    counts: np.ndarray
    region: AcceptRegion
    cfg: McmcConfig
    stream: RandomStream
    partition: Partition


class _Lockstep:
    """A group of runs in lockstep: what they wait on this step, their chains in one slab.

    Run k owns rows ``[k*n, (k+1)*n)`` of each slab array: the
    population its chains write, each chain's state being its last
    output, and its level's normals in draw order, which its rounds take
    after its cursor, chain by chain, so each run draws exactly what it
    draws alone. A round of every run's chains is one proposal
    expression, one ``classify``, one lookup in the flat ``(runs*J)``
    region tables, one write and one accept.
    """

    def __init__(self, runs: int, n: int):
        self.runs, self.n, self.cfg = runs, n, None  # the slab is made for the first chains
        self.waiting = np.zeros(runs, dtype=bool)
        self.queue: list[tuple] = []  # (points, runs, point counts, chains round or None)

    def add(self, k: int, want) -> None:
        """Queue run k's points, or take its chains into its rows and draw their normals."""
        if not isinstance(want, ChainRequest):
            self.queue.append((want, [k], [want.shape[0]], None))
            return
        if self.cfg is None:
            self.cfg, self.partition, self.n_bins = want.cfg, want.partition, want.partition.n_bins
            self.scale = math.sqrt(1.0 - want.cfg.corr**2)
            rows, dim = self.runs * self.n, want.points.shape[1]
            self.out_p, self.eps = np.empty((2, rows, dim))
            self.out_v = self.out_p.view(f"V{8 * dim}")[:, 0]  # a row as one item: fast moves
            self.out_g = np.empty(rows)
            # per chain: the slot of its next output, the steps it has still to take
            self.out_b, self.pos, self.left = np.zeros((3, rows), np.int64)
            self.active = np.zeros(self.runs * self.n_bins, bool)
            self.gamma = np.empty(self.runs * self.n_bins)
            # per run: the row of its next normal and past its last, its population size
            self.cursor, self.stop, self.size = np.zeros((3, self.runs), np.int64)
        elif want.partition is not self.partition or want.cfg != self.cfg:
            raise ConfigurationError("the runs of a group must share partition and MCMC settings")
        ends = want.counts.cumsum()
        b, m, size = k * self.n, want.counts.size, ends[-1]
        if size > self.n:
            raise ConfigurationError(f"a population of {size} exceeds the {self.n} rows of a run")
        want.stream.standard_normal(out=self.eps[b : b + size - m])
        starts = ends - want.counts + b
        self.out_p[starts], self.out_g[starts] = want.points, want.gvals
        self.out_b[starts] = want.bins
        self.pos[b : b + m] = starts + 1
        self.left[b : b + m] = want.counts - 1
        self.cursor[k], self.stop[k], self.size[k] = b, b + size - m, size
        tables = slice(k * self.n_bins, (k + 1) * self.n_bins)
        self.active[tables], self.gamma[tables] = want.region.active, want.region.gamma

    def propose(self) -> list[tuple]:
        """Queue a round of proposals of each run whose chains do not wait on g yet.

        A run with no proposal in an open bin takes its round at once and
        proposes again, as alone; returns those whose level ended so.
        """
        ended: list[tuple] = []
        while self.cfg is not None:
            rows = self.left.nonzero()[0]
            if np.count_nonzero(self.waiting):
                rows = rows[~self.waiting[rows // self.n]]
            if not rows.size:
                break
            run, at = rows // self.n, self.pos[rows]
            cnt = np.bincount(run, minlength=self.runs)
            draw = (self.cursor - cnt.cumsum() + cnt)[run] + np.arange(rows.size)
            self.cursor += cnt
            prop = (self.cfg.corr * self.out_p.take(at - 1, axis=0)
                    + self.scale * self.eps.take(draw, axis=0))
            pbins = self.partition.classify(prop)
            key = run * self.n_bins + pbins
            ok = self.active[key].nonzero()[0]
            stepped = cnt.nonzero()[0]
            n_points = np.bincount(run[ok], minlength=self.runs)[stepped]
            idle = n_points == 0  # every proposal in a closed bin: no g-call
            candidates = (at[ok], pbins[ok], self.gamma[key[ok]])
            if lazy := np.count_nonzero(idle):
                mine = np.repeat(idle, cnt[stepped])  # rows are sorted by run
                ended += self._advance(rows[mine], at[mine], stepped[idle])
                rows, at = rows[~mine], at[~mine]
                stepped, n_points = stepped[~idle], n_points[~idle]
            self.waiting[stepped] = True
            if stepped.size:
                self.queue.append(
                    (prop.take(ok, axis=0), stepped.tolist(), n_points.tolist(),
                     (rows, at, *candidates, stepped))
                )
            if not lazy:
                break
        return ended

    def evaluate(self, ls: LimitState, ctrs: list[EvalCounter]) -> tuple[np.ndarray, dict]:
        """g-values of the queued points, from one g-call if it succeeds, else
        run by run; a run whose points make g fail maps to its error (its values unset)."""
        points = [q[0] for q in self.queue]
        points = np.concatenate(points) if len(points) > 1 else points[0]
        owners = [(k, size) for q in self.queue for k, size in zip(q[1], q[2])]
        if len(owners) > 1:
            try:
                gv = evaluate_batch(ls, points, EvalCounter())
                for k, size in owners:
                    ctrs[k].add(size)
                return gv, {}
            except EvaluationError:
                pass
        gv, failed, a = np.empty(points.shape[0]), {}, 0
        for k, size in owners:
            try:
                gv[a : a + size] = evaluate_batch(ls, points[a : a + size], ctrs[k])
            except EvaluationError as exc:
                failed[k] = exc
            a += size
        return gv, failed

    def accept(self, gv: np.ndarray) -> list[tuple]:
        """Hand the queued points their g-values: ``(run, values)`` for plain
        points, ``(run, population)`` for each run whose level ended."""
        ended, a = [], 0
        for points, owners, _, chains in self.queue:
            g = gv[a : a + points.shape[0]]
            a += points.shape[0]
            if chains is None:
                ended.append((owners[0], g))
                continue
            rows, at, slots, pbins, gamma, stepped = chains
            ended += self._advance(rows, at, stepped)
            hit = g <= gamma
            acc = slots[hit]
            self.out_v[acc] = points.view(self.out_v.dtype)[hit, 0]
            self.out_g[acc], self.out_b[acc] = g[hit], pbins[hit]
        self.queue = []
        self.waiting[:] = False
        return ended

    def _advance(self, rows: np.ndarray, at: np.ndarray, stepped: np.ndarray) -> list[tuple]:
        """Write each chain's state on (accepted moves overwrite it), and end finished levels."""
        prev = at - 1
        for out in (self.out_v, self.out_g, self.out_b):
            out[at] = out[prev]
        self.pos[rows] = at + 1
        self.left[rows] -= 1
        done = stepped[self.cursor[stepped] == self.stop[stepped]].tolist()
        spans = [slice(k * self.n, k * self.n + self.size[k]) for k in done]
        # a run whose level ended gets views of its rows, valid until its next request
        return [(k, (self.out_p[s], self.out_g[s], self.out_b[s])) for k, s in zip(done, spans)]

    def drop(self, k: int) -> None:
        if self.cfg is not None:  # forget run k's chains
            self.left[k * self.n : (k + 1) * self.n] = 0


class Generators:
    """Step generators, one a run, as a stepper: each yields an ``(N, dim)``
    array of points or a :class:`ChainRequest`, and returns its result."""

    def __init__(self, gens: list):
        self.gens, self.results = gens, [None] * len(gens)

    def send(self, ready: list[tuple]) -> list[tuple]:
        wants = []
        for k, value in ready:
            try:
                wants.append((k, self.gens[k].send(value)))
            except StopIteration as stop:
                self.results[k] = stop.value
        return wants

    def fail(self, k: int, exc: EvaluationError) -> None:
        self.gens[k].close()
        self.results[k] = exc


def run_steps(steps, ls: LimitState, ctrs: list[EvalCounter], n: int) -> list:
    """Drive the ``len(ctrs)`` runs of a stepper in lockstep and return their results.

    ``steps`` is a stepper or a list of step generators. Its ``send``
    takes ``(run, value)`` pairs, ``None`` at the start, and returns
    ``(run, request)`` pairs: an ``(N, dim)`` array of points, whose
    g-values are the next value, or a :class:`ChainRequest` of at most
    ``n`` offspring, whose new population is; a run that ends sets its
    entry of ``results``. A step makes one g-call (none without points)
    for every run's points and every chain proposal in an open bin, each
    run counting its own on its counter in ``ctrs``. A run whose own
    points make g fail is closed by ``fail``, its result the error.
    """
    if isinstance(steps, list):
        steps = Generators(steps)
    step = _Lockstep(len(ctrs), n)
    ready: list[tuple] = [(k, None) for k in range(len(ctrs))]
    while True:
        for k, want in steps.send(ready):
            step.add(k, want)
        ready = step.propose()
        if ready:
            continue
        if not step.queue:
            return steps.results
        gv, failed = step.evaluate(ls, ctrs)
        ready = [(k, value) for k, value in step.accept(gv) if k not in failed]
        for k, exc in failed.items():
            steps.fail(k, exc)
            step.drop(k)


def run_alone(steps, ls: LimitState, ctr: EvalCounter, n: int):
    """:func:`run_steps` for one run; an :class:`EvaluationError` is raised."""
    out = run_steps(steps, ls, [ctr], n)[0]
    if isinstance(out, EvaluationError):
        raise out
    return out


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


def binned_quantiles(values, bins, n_bins: int, rho: float, counts=None) -> np.ndarray:
    """Quantile of order ``rho`` of each bin's values, by one sort of the population.

    Entry j equals ``interp_quantile(values[bins == j], rho)`` bit for
    bit, and is NaN for a bin with no values. The population is sorted
    once by (bin, value); per-bin offsets come from the bin counts, and
    the interpolation is done for all bins at once with the arithmetic
    of :func:`interp_quantile`. A caller that has the bin counts,
    ``np.bincount(bins, minlength=n_bins)``, can pass them as ``counts``.
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
    k = np.bincount(bins, minlength=n_bins) if counts is None else counts
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
