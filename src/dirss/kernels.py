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

from .errors import ConfigurationError, EvaluationError, check_open_interval
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
        check_open_interval(self.corr, "mcmc corr")


def propagate_chains(
    seed_points: np.ndarray,
    seed_gvals: np.ndarray,
    seed_bins: np.ndarray,
    offspring: np.ndarray,
    gamma: np.ndarray,
    cfg: McmcConfig,
    stream: RandomStream,
    ls: LimitState,
    partition: Partition,
    ctr: EvalCounter,
):
    """Grow one Markov chain per seed, all chains advanced in lockstep.

    A seed with offspring count c contributes itself plus c - 1 kernel
    steps; a seed with count 0 contributes nothing. A step proposes
    ``corr * state + sqrt(1 - corr**2) * eps``. ``gamma`` is the threshold
    table, -inf for a closed bin: a proposal in a closed bin is rejected
    before any g-evaluation (bin membership is free), one in bin j is
    evaluated once and accepted iff its g-value is at most ``gamma[j]``;
    a rejected step repeats the current state. The output population has
    exactly ``offspring.sum()`` members, each within its bin's threshold.
    The level's normals come from one draw of ``stream``; each round
    evaluates its proposals in open bins on ``ls`` in one g-call, added
    to ``ctr``: this is a :class:`ChainRequest` of one run, driven by
    :func:`run_steps` as a group's are. Chains that take no step return
    at once, without a draw or a g-call.

    Returns
    -------
    (points, gvals, bins) : the new population, chains stored contiguously.
    """
    offspring = np.asarray(offspring, dtype=np.int64)
    if offspring.shape != (seed_points.shape[0],):
        raise ConfigurationError("offspring counts must match the number of seeds")
    keep = offspring > 0
    if not keep.any():
        raise ConfigurationError("at least one seed needs a positive offspring count")
    counts = offspring[keep]
    request = ChainRequest(seed_points[keep], seed_gvals[keep], seed_bins[keep],
                           np.array([counts.size]), counts, gamma[None])
    chains = _Chains(request, ls, int(counts.sum()), partition, cfg, stream)
    try:
        return run_alone(chains)
    finally:
        ctr.add(chains.ctrs[0].count)


class _Chains:
    """The stepper of :func:`propagate_chains`: one run that brings one request."""

    def __init__(self, request, ls, n, partition, mcmc, stream):
        self.request, self.ls, self.n, self.partition, self.mcmc = request, ls, n, partition, mcmc
        self.streams, self.ctrs, self.results = [stream], [EvalCounter()], [None]

    def send(self, ready: list[tuple]) -> list[tuple]:
        ((_, self.results[0]),) = ready  # None at the start, then the population
        return [] if self.results[0] is not None else [([0], self.request)]


@dataclass(frozen=True)
class ChainRequest:
    """The Markov chains of a level of one or more runs, as a stepper requests
    them to get each run's new population back.

    Only the level's data: the stepper holds the partition, MCMC settings
    and streams. The seeds are stacked run by run: run i brings the next
    ``n_seeds[i]`` (at least 1) of ``points``, ``gvals`` and ``bins``, each
    with its offspring count (at least 1) in ``counts``, and accepts by row
    i of ``gamma``, the ``(runs, J)`` threshold table, -inf for a closed
    bin. A run whose counts are all 1 takes no chain step: its seeds are
    its population.
    """

    points: np.ndarray
    gvals: np.ndarray
    bins: np.ndarray
    n_seeds: np.ndarray
    counts: np.ndarray
    gamma: np.ndarray


class _Lockstep:
    """A group of runs in lockstep: what they wait on this step, their chains in one slab.

    The group's fixed state is read off its stepper (see :func:`run_steps`),
    and the slab is made when the first chains arrive. Run k owns rows
    ``[k*n, (k+1)*n)`` of each slab array: the population its chains
    write, each chain's state being its last output, and its level's
    normals in draw order, which its rounds take after its cursor, chain
    by chain, so each run draws exactly what it draws alone. The runs of
    a :class:`ChainRequest` enter their chains, and their rows of the
    threshold table ``gamma`` of shape ``(runs, J)``, -inf for a closed
    bin, with one write of each array; only their normal draws stay run
    by run. A round of every run's chains is one proposal expression, one
    ``classify``, one table lookup, one write and one accept. A chain
    with steps left is in ``live`` or in the queue, waiting on g; a run's
    level ends when none of its chains is left.
    """

    def __init__(self, stepper):
        self.stepper, self.runs, self.n = stepper, len(stepper.streams), stepper.n
        self.partition = None  # the slab is made for the first chains
        self.queue: list[tuple] = []  # (points, runs, point counts, chains round or None)
        # the rows of the chains with steps left and no g-value pending, in order;
        # run k's start at k*n
        self.live, self.bounds = np.zeros(0, np.int64), np.arange(self.runs + 1) * self.n

    def add(self, ks, want) -> list[tuple]:
        """Enter the chains of runs ``ks``, or draw and queue their points;
        return the runs whose chains take no step, with their populations."""
        if isinstance(want, ChainRequest):
            return self.enter(np.asarray(ks), want)
        runs, size = want  # each run draws size points from its own stream
        points = np.empty((runs, size, self.stepper.ls.dimension))
        for k, out in zip(ks, points):
            self.stepper.streams[k].standard_normal(out=out)
        self.queue.append((points.reshape(runs * size, -1), ks, [size] * runs, None))
        return []

    def enter(self, ks: np.ndarray, want: ChainRequest) -> list[tuple]:
        """Take the chains of runs ``ks`` into their rows, one write of each slab
        array for all, and draw each run's normals from its own stream; return
        the runs whose chains take no step, with their seeds as their populations."""
        if self.partition is None:
            self.partition, self.corr = self.stepper.partition, self.stepper.mcmc.corr
            self.n_bins, self.scale = self.partition.n_bins, math.sqrt(1.0 - self.corr**2)
            rows, dim = self.runs * self.n, want.points.shape[1]
            self.out_p, self.eps = np.empty((2, rows, dim))
            self.out_v = self.out_p.view(f"V{8 * dim}")[:, 0]  # a row as one item: fast moves
            self.out_g = np.empty(rows)
            # per chain: the slot of its next output and of its last output
            self.out_b, self.next, self.last = np.zeros((3, rows), np.int64)
            self.gamma = np.empty((self.runs, self.n_bins))
            self.cursor = np.zeros(self.runs, np.int64)  # per run: the row of its next normal
        if want.gamma.shape != (ks.size, self.n_bins):
            raise ConfigurationError(f"a threshold table of shape {want.gamma.shape} does not "
                                     f"fit {ks.size} runs of {self.n_bins} bins")
        m, counts = want.n_seeds, want.counts
        firsts = m.cumsum() - m  # each run's first seed
        size = np.add.reduceat(counts, firsts)
        if (size != self.n).any():
            raise ConfigurationError(
                f"a population of {size[size != self.n][0]} does not fill the {self.n} rows "
                "of a run")
        # a seed's chain writes after the chains of its run's earlier seeds
        base = ks * self.n
        starts = counts.cumsum() - counts + (base - self.n * np.arange(ks.size)).repeat(m)
        points = np.ascontiguousarray(want.points, dtype=float)
        self.out_v[starts], self.out_g[starts] = points.view(self.out_v.dtype)[:, 0], want.gvals
        self.out_b[starts] = want.bins
        chain = np.arange(counts.size) + (base - firsts).repeat(m)
        self.next[chain], self.last[chain] = starts + 1, starts + counts - 1
        self.cursor[ks], self.gamma[ks] = base, want.gamma
        self.live = np.concatenate((self.live, chain[counts > 1]))
        self.live.sort(kind="stable")  # a merge of sorted runs of rows
        steps = self.n - m
        for k, b, s in zip(ks.tolist(), base.tolist(), steps.tolist()):
            if s:
                self.stepper.streams[k].standard_normal(out=self.eps[b : b + s])
        return [self._population(k) for k in ks[steps == 0].tolist()]

    def _population(self, k: int) -> tuple:
        # a run whose level ended gets views of its rows, valid until its next request
        s = slice(k * self.n, (k + 1) * self.n)
        return k, (self.out_p[s], self.out_g[s], self.out_b[s])

    def propose(self) -> list[tuple]:
        """Queue a round of proposals of each run with chains in ``live``, and empty it.

        A run with no proposal in an open bin takes its round at once and
        proposes again, as alone. Returns the runs whose level ended so.
        """
        ended = []
        while self.live.size:
            rows = self.live
            first = rows.searchsorted(self.bounds)  # each run's first row in rows
            cnt = first[1:] - first[:-1]
            at = self.next[rows]
            draw = (self.cursor - first[:-1]).repeat(cnt) + np.arange(rows.size)
            self.cursor += cnt
            prop = (self.corr * self.out_p.take(at - 1, axis=0)
                    + self.scale * self.eps.take(draw, axis=0))
            pbins = self.partition.classify(prop)
            gamma = self.gamma[rows // self.n, pbins]
            ok = (gamma > -np.inf).nonzero()[0]
            stepped = cnt.nonzero()[0]
            n_ok = ok.searchsorted(first)
            n_points = (n_ok[1:] - n_ok[:-1])[stepped]
            idle = n_points == 0  # every proposal in a closed bin: no g-call
            candidates = (at[ok], pbins[ok], gamma[ok])
            self.live = rows[:0]
            if np.count_nonzero(idle):
                mine = idle.repeat(cnt[stepped])  # rows are sorted by run
                self.live, done = self._advance(rows[mine], at[mine], stepped[idle])
                ended += done
                rows, at = rows[~mine], at[~mine]
                stepped, n_points = stepped[~idle], n_points[~idle]
            if stepped.size:
                self.queue.append(
                    (prop.take(ok, axis=0), stepped.tolist(), n_points.tolist(),
                     (rows, at, *candidates, stepped))
                )
        return ended

    def evaluate(self) -> tuple[np.ndarray, dict]:
        """g-values of the queued points, from one g-call if it succeeds, else
        run by run; a run whose points make g fail maps to its error (its values unset)."""
        ls, ctrs = self.stepper.ls, self.stepper.ctrs
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
        """Hand the queued points their g-values: ``(run, (points, gvals))`` for
        drawn points, ``(run, population)`` for each run whose level ended;
        put the chains of the others back in ``live``."""
        ended, live, a = [], [], 0
        for points, owners, _, chains in self.queue:
            g = gv[a : a + points.shape[0]]
            a += points.shape[0]
            if chains is None:  # equal chunks of drawn points, run by run
                ended += zip(owners, zip(np.split(points, len(owners)), np.split(g, len(owners))))
                continue
            rows, at, slots, pbins, gamma, stepped = chains
            left, done = self._advance(rows, at, stepped)
            live.append(left)
            ended += done
            hit = g <= gamma
            acc = slots[hit]
            self.out_v[acc] = points.view(self.out_v.dtype)[hit, 0]
            self.out_g[acc], self.out_b[acc] = g[hit], pbins[hit]
        self.queue = []
        if live:  # rounds of different runs: a merge of sorted rows
            self.live = np.sort(np.concatenate(live), kind="stable") if len(live) > 1 else live[0]
        return ended

    def _advance(self, rows: np.ndarray, at: np.ndarray, stepped: np.ndarray) -> tuple:
        """Write each chain's state on (accepted moves overwrite it); return the
        chains with steps left, and the runs ``stepped`` none of whose chains is."""
        prev = at - 1
        for out in (self.out_v, self.out_g, self.out_b):
            out[at] = out[prev]
        self.next[rows] = at + 1
        gone = at == self.last[rows]
        if not np.count_nonzero(gone):  # every chain has steps left
            return rows, []
        left = rows[~gone]
        first = left.searchsorted(self.bounds)
        done = stepped[first[stepped + 1] == first[stepped]].tolist()
        return left, [self._population(k) for k in done]

    def drop(self, k: int) -> None:
        """Forget run k's chains."""
        self.live = self.live[self.live // self.n != k]


def run_steps(steps) -> list:
    """Drive the runs of a group stepper in lockstep and return their results.

    The stepper holds the group: the problem ``ls``, the population size
    ``n``, each run k's ``streams[k]``, ``ctrs[k]`` and ``results[k]``, and,
    if it requests chains, their ``partition`` and ``mcmc``. Its ``send``
    takes ``(run, value)`` pairs of the runs that are ready, ``None`` for
    each at the start, and returns ``(runs, request)`` pairs, ``runs`` a
    list: a count ``(len(runs), size)``, each run's value then being
    ``(points, gvals)`` of ``size`` points drawn from its stream, or a
    :class:`ChainRequest` of the runs, each filling ``n`` rows, whose new
    populations ``(points, gvals, bins)`` are. A run that ends sets its
    entry of ``results``. A step makes one g-call (none without points)
    for every run's points and every chain proposal in an open bin, each
    run counting its own on its counter. A run whose chains take no step,
    or no step that needs g, gets its population back within the step, as
    often as it asks. A run whose own points make g fail ends with the
    :class:`EvaluationError` as its result, and is not sent again.
    """
    step = _Lockstep(steps)
    ready: list[tuple] = [(k, None) for k in range(step.runs)]
    while True:
        # the values sent are let go before the requests take their memory
        wants, ready = steps.send(ready) if ready else (), []
        for ks, want in wants:
            ready += step.add(ks, want)
        ready += step.propose()
        if ready:
            continue
        if not step.queue:
            return steps.results
        gv, failed = step.evaluate()
        ready = [(k, value) for k, value in step.accept(gv) if k not in failed]
        for k, exc in failed.items():
            steps.results[k] = exc
            step.drop(k)


def run_alone(steps):
    """:func:`run_steps` for a stepper of one run; an :class:`EvaluationError` is raised."""
    out = run_steps(steps)[0]
    if isinstance(out, EvaluationError):
        raise out
    return out


def residual_resample(n_seeds: int, n_target: int, stream: RandomStream) -> np.ndarray:
    """Equal-weight residual resampling: offspring counts for each seed.

    Every seed receives floor(n_target / n_seeds) offspring
    deterministically; the remaining r = n_target - n_seeds * floor(...)
    are assigned by a multinomial draw with equal probabilities. Counts
    always sum to ``n_target``. This is the one-run case of
    :func:`stacked_residual_resample`.
    """
    return stacked_residual_resample([n_seeds], n_target, [stream])


def stacked_residual_resample(n_seeds, n_target: int, streams: list) -> np.ndarray:
    """:func:`residual_resample` of several runs, their counts stacked run by run.

    Run i's ``n_seeds[i]`` counts equal ``residual_resample(n_seeds[i],
    n_target, streams[i])`` bit for bit, and leave that stream in the same
    state: the deterministic shares of all runs are one array, and only
    the multinomial draw of each run with a remainder is made run by run.
    """
    n_seeds = np.asarray(n_seeds, dtype=np.int64)
    if n_seeds.min() < 1:
        raise ConfigurationError("residual resampling needs at least one seed")
    if n_target < 1:
        raise ConfigurationError("target population must be at least 1")
    base, rest = np.divmod(n_target, n_seeds)
    counts, end = base.repeat(n_seeds), 0
    for m, r, stream in zip(n_seeds.tolist(), rest.tolist(), streams):
        end += m
        if r:
            counts[end - m : end] += stream.multinomial(r, np.full(m, 1.0 / m))
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
    ``np.bincount(bins, minlength=n_bins)``, can pass them as ``counts``;
    its bins are then not checked again.
    """
    check_open_interval(rho, "quantile order rho")
    values = np.asarray(values, dtype=float)
    bins = np.asarray(bins, dtype=np.int64)
    if values.ndim != 1 or bins.shape != values.shape:
        raise ConfigurationError("values and bins must be 1-D arrays of equal length")
    if values.size == 0:
        return np.full(n_bins, np.nan)
    if counts is None:
        if bins.min() < 0:
            raise ConfigurationError(f"bin index {bins.min()} is negative")
        counts = np.bincount(bins, minlength=n_bins)
    k = counts
    if k.size != n_bins:
        raise ConfigurationError(f"bin index {k.size - 1} is out of range for {n_bins} bins")
    # value order, then a stable sort by bin, which is a radix sort for
    # up to 2**16 bins
    order = values.argsort()
    by_bin = bins[order].astype(np.uint16 if n_bins <= 1 << 16 else np.int64)
    order = order[by_bin.argsort(kind="stable")]
    # with h = (k - 1) * rho + 1 and i = floor(h) as in interp_quantile,
    # x_(i) of bin j is the value at position end_j - k_j + i - 1 of order
    h = (k - 1) * rho + 1.0
    i = h.astype(np.int64)  # h > 0, so truncation is floor
    x_lo, x_hi = values[order.take(k.cumsum() - k + i + _LO_HI, mode="clip")]
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
