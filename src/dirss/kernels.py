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
from .limitstate import LimitState, evaluate_batch
from .partition import BLOCK, Partition, blocks

# A group whose runs draw at most _LEVEL_DRAW normals a level (n * dim) draws each
# run's level in one call into a slab of n * dim floats a run; a larger one keeps
# no such slab, and each round draws the normals it asks for. Both draw the same
# normals in the same order. A round's draws cost a call a run, which a group of
# many small runs pays in every round. 2**12 was set by a sweep of both schedules
# on groups as harness.group_size makes them: CPU a run, round draws over level
# draws, the median of 7 alternating passes (11 for 10-D dSS) on 2 shared cores of
# an Intel Xeon; dSS on piecewise_linear with the case-1 cuts and SS on
# beta_points in 2-D, SS on make_linear(3.5, 10) and dSS on it over 1024 orthants
# in 10-D:
#   n * dim        512    1000    2000    2896    4096    8192   16384   32768   65536
#   2-D dSS       1.08    1.15    1.01    0.99   0.99*    0.98    0.91    0.96    0.98
#   2-D SS                        0.98            1.02
#   n * dim       1000    2000    4090   20480   40960   81920  163840  200000  327680
#   10-D SS       1.06    1.02    1.00    0.99    0.95    0.94    0.97            0.97
#   10-D dSS                                                      0.97    0.98    0.98
# (* 0.89 in a second sweep)
_LEVEL_DRAW = 2**12


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
    points: np.ndarray,
    gvals: np.ndarray,
    bins: np.ndarray,
    offspring: np.ndarray,
    gamma: np.ndarray,
    cfg: McmcConfig,
    stream: RandomStream,
    ls: LimitState,
    partition: Partition,
):
    """Grow one Markov chain from each row of a population, all chains advanced in lockstep.

    Row i with offspring count c = ``offspring[i]`` is a seed that
    contributes itself plus c - 1 kernel steps; a row with count 0 is no
    seed and contributes nothing. A step proposes
    ``corr * state + sqrt(1 - corr**2) * eps``. ``gamma`` is the threshold
    table, -inf for a closed bin: a proposal in a closed bin is rejected
    before any g-evaluation (bin membership is free), one in bin j is
    evaluated once and accepted iff its g-value is at most ``gamma[j]``;
    a rejected step repeats the current state. The output population has
    exactly ``offspring.sum()`` members, each within its bin's threshold.
    The level's normals come from ``stream``, in the order of a run of
    :func:`run_steps` (one draw, or a draw a round); each round
    evaluates its proposals in open bins on ``ls`` in one g-call, so g
    sees exactly the evaluations the chains cost: this is a
    :class:`ChainRequest` of one run, which names its seeds by row of
    ``points``, ``gvals`` and ``bins``, driven by :func:`run_steps` as a
    group's are. Chains that take no step return at once, without a draw
    or a g-call.

    Returns
    -------
    (points, gvals, bins) : the new population, chains stored contiguously.
    """
    offspring = np.asarray(offspring, dtype=np.int64)
    if offspring.shape != (points.shape[0],):
        raise ConfigurationError("offspring counts must match the number of seeds")
    seeds = offspring.nonzero()[0]
    if not seeds.size:
        raise ConfigurationError("at least one seed needs a positive offspring count")
    if gamma.shape != (partition.n_bins,):
        raise ConfigurationError(f"a threshold table of shape {gamma.shape} does not fit "
                                 f"{partition.n_bins} bins")
    counts = offspring[seeds]
    request = ChainRequest(points, gvals, bins, seeds, np.array([seeds.size]), counts,
                           gamma[None])
    return run_alone(run_steps(_Chains(request, ls, int(counts.sum()), partition, cfg, stream)))


class _Chains:
    """The stepper of :func:`propagate_chains`: one run that brings one request."""

    def __init__(self, request, ls, n, partition, mcmc, stream):
        self.request, self.ls, self.n, self.partition, self.mcmc = request, ls, n, partition, mcmc
        self.streams, self.n_evals, self.results = [stream], np.zeros(1, np.int64), [None]

    def send(self, ks: list[int], slab) -> list[tuple]:
        if slab is None:  # the start
            return [([0], self.request)]
        self.results[0] = tuple(a[0] for a in slab)
        return []


@dataclass(frozen=True)
class ChainRequest:
    """The Markov chains of a level of one or more runs, as a stepper requests
    them to get each run's new population back.

    Only the level's data: the stepper holds the partition, MCMC settings
    and streams. ``points``, ``gvals`` and ``bins`` are the rows that the
    seeds are picked from, such as the populations the runs were handed,
    and ``seeds`` names the seeds by row of them, run by run: run i brings
    the next ``n_seeds[i]`` (at least 1) of ``seeds``, each with its
    offspring count (at least 1) in ``counts``, and accepts by row i of
    ``gamma``, the ``(runs, J)`` threshold table, -inf for a closed bin. A
    run whose counts are all 1 takes no chain step: its seeds are its
    population.
    """

    points: np.ndarray
    gvals: np.ndarray
    bins: np.ndarray
    seeds: np.ndarray
    n_seeds: np.ndarray
    counts: np.ndarray
    gamma: np.ndarray


class _Lockstep:
    """A group of runs in lockstep: what they wait on this step, their chains in one slab.

    The group's fixed state is read off its stepper (see :func:`run_steps`).
    Run k owns rows ``[k*n, (k+1)*n)`` of each slab array: its level 0,
    drawn and classified there, then the populations its chains write, each
    chain's state being its last output. A run's rounds take its normals
    from its own stream in draw order, round by round and chain by chain,
    so each run draws exactly what it draws alone: where a run draws at
    most ``_LEVEL_DRAW`` normals a level (n * dim), it draws its level's in
    one call into its rows of ``eps``, which its rounds take after its
    cursor; else the group keeps no ``eps``, and each round draws each
    run's next normals into one array. The runs of a :class:`ChainRequest`
    enter their chains, gathering their seeds into the chains' start rows
    a block of whole runs at a time, and their rows of the threshold table
    ``gamma`` of shape ``(runs, J)``, -inf for a closed bin, with one write
    of each other array. A round of every run's chains is one proposal
    expression, one ``classify``, one table lookup, one write and one
    accept; the moves in open bins are kept in the proposals' own array
    and the states written on a block of rows at a time, with no copy of
    every point. A chain with steps left is in ``live`` or in the queue,
    waiting on g; a run's level ends when none of its chains is left, and
    the runs whose levels ended at one step are handed the whole slab, run
    k's population at index k.

    Rows are selected by index, never by boolean indexing: a mask is
    turned into indices once, with ``nonzero()``, and each array is read
    with ``take``; a mask that selects from one array only is applied with
    ``compress``. On an Intel Xeon core, at a round of 10,000 rows with 60%
    kept, boolean indexing costs about 38 us an array, against 7 us for the
    ``nonzero()``, 4 us for each ``take`` after it and 11 us for a
    ``compress``; at a solo run's 100 rows 0.8 us against 0.5, 0.6 and 1.0 us.
    """

    def __init__(self, stepper):
        self.stepper, self.runs, self.n = stepper, len(stepper.streams), stepper.n
        self.partition, self.corr = stepper.partition, stepper.mcmc.corr
        self.n_bins, self.scale = self.partition.n_bins, math.sqrt(1.0 - self.corr**2)
        rows, dim = self.runs * self.n, stepper.ls.dimension
        self.out_p = np.empty((rows, dim))
        self.out_v = self.out_p.view(f"V{8 * dim}")[:, 0]  # a row as one item: fast moves
        self.out_g = np.empty(rows)
        # per chain: the slot of its next output and of its last output
        self.out_b, self.next, self.last = np.zeros((3, rows), np.int64)
        self.gamma = np.empty((self.runs, self.n_bins))
        if self.n * dim <= _LEVEL_DRAW:  # each run's level's normals, and its next one's row
            self.eps, self.cursor = np.empty((rows, dim)), np.zeros(self.runs, np.int64)
        else:  # each round draws its own
            self.eps = self.cursor = None
        shape = (self.runs, self.n)  # what a handoff hands over
        self.slab = (self.out_p.reshape(*shape, dim), self.out_g.reshape(shape),
                     self.out_b.reshape(shape))
        # (points, runs, their point counts, then a chains round, or the rows of
        # level 0), each run at most once a step
        self.queue: list[tuple] = []
        # the rows of the chains with steps left and no g-value pending, in order;
        # run k's start at k*n
        self.live, self.bounds = np.zeros(0, np.int64), np.arange(self.runs + 1) * self.n
        self.ended: list[int] = []  # the runs whose level ended and that are not handed over

    def draw(self) -> None:
        """Draw every run's level 0, ``n`` points from its own stream, into its rows,
        classify it there and queue it for g."""
        n = self.n
        for k in range(self.runs):
            self.stepper.streams[k].standard_normal(out=self.out_p[k * n : (k + 1) * n])
        self.out_b[:] = self.partition.classify(self.out_p)
        self.queue.append((self.out_p, np.arange(self.runs), np.full(self.runs, n), slice(None)))

    def enter(self, ks: np.ndarray, want: ChainRequest) -> None:
        """Take the chains of runs ``ks`` into their rows, one write of each slab
        array for all but the points, and on the level-draw schedule draw each
        run's normals from its own stream; a run whose chains take no step ends
        its level with its seeds as its population."""
        m, counts, seeds = want.n_seeds, want.counts, want.seeds
        ends = m.cumsum()
        firsts = ends - m  # each run's first seed
        base = ks * self.n
        # a seed's chain writes after the chains of its run's earlier seeds. A
        # run's seeds may be rows of its own population in the slab, so all of a
        # run's seeds are gathered before any is written: whole runs a block, at
        # most BLOCK seeds or one run, so that no copy of the group's seeds is made
        starts = counts.cumsum() - counts + (base - self.n * np.arange(ks.size)).repeat(m)
        points = np.ascontiguousarray(want.points, dtype=float).view(self.out_v.dtype)[:, 0]
        lo = 0
        while lo < ks.size:
            hi = max(int(ends.searchsorted(firsts[lo] + BLOCK, "right")), lo + 1)
            block = slice(firsts[lo], ends[hi - 1])
            self.out_v[starts[block]] = points.take(seeds[block])
            lo = hi
        self.out_g[starts], self.out_b[starts] = want.gvals.take(seeds), want.bins.take(seeds)
        chain = np.arange(counts.size) + (base - firsts).repeat(m)
        self.next[chain], self.last[chain] = starts + 1, starts + counts - 1
        self.gamma[ks] = want.gamma
        self.live = np.concatenate((self.live, chain.compress(counts > 1)))
        self.live.sort(kind="stable")  # a merge of sorted runs of rows
        steps = self.n - m
        if self.eps is not None:
            self.cursor[ks] = base
            for k, b, s in zip(ks.tolist(), base.tolist(), steps.tolist()):
                if s:
                    self.stepper.streams[k].standard_normal(out=self.eps[b : b + s])
        self.ended += ks[steps == 0].tolist()

    def handoff(self) -> tuple[list[int], tuple]:
        """The runs whose level ended, in order, and the slab ``(points, gvals,
        bins)``, run k's population at index k, valid until the runs' next request."""
        ended, self.ended = sorted(self.ended), []
        return ended, self.slab

    def propose(self) -> None:
        """Queue a round of proposals of each run with chains in ``live``, and empty it.

        A run with no proposal in an open bin takes its round at once and
        proposes again, as alone, and may end its level so.
        """
        while self.live.size:
            rows = self.live
            first = rows.searchsorted(self.bounds)  # each run's first row in rows
            cnt = first[1:] - first[:-1]
            at = self.next[rows]
            stepped = cnt.nonzero()[0]
            prop = self.out_p.take(at - 1, axis=0)
            prop *= self.corr
            prop += self._steps(first, cnt, stepped)
            pbins = self.partition.classify(prop)
            gamma = self.gamma.take(rows // self.n * self.n_bins + pbins)
            ok = (gamma > -np.inf).nonzero()[0]
            n_ok = ok.searchsorted(first)
            n_points = (n_ok[1:] - n_ok[:-1])[stepped]
            idle = n_points == 0  # every proposal in a closed bin: no g-call
            candidates = (at.take(ok), pbins.take(ok), gamma.take(ok))
            self.live = rows[:0]
            if np.count_nonzero(idle):
                idle_rows = idle.repeat(cnt[stepped])  # rows are sorted by run
                mine, rest = idle_rows.nonzero()[0], (~idle_rows).nonzero()[0]
                self.live = self._advance(rows.take(mine), at.take(mine), stepped[idle])
                rows, at = rows.take(rest), at.take(rest)
                stepped, n_points = stepped[~idle], n_points[~idle]
            if stepped.size:
                self.queue.append((_compact(prop, ok), stepped, n_points, (rows, at, *candidates)))

    def _steps(self, first: np.ndarray, cnt: np.ndarray, stepped: np.ndarray) -> np.ndarray:
        """A round's normals times ``sqrt(1 - corr**2)``: the next ``cnt[k]`` of each
        run k, the runs ``stepped`` in order, from the slab or drawn here."""
        if self.eps is None:
            eps = np.empty((first[-1], self.out_p.shape[1]))
            for k, a, b in zip(stepped.tolist(), first.take(stepped).tolist(),
                               first.take(stepped + 1).tolist()):
                self.stepper.streams[k].standard_normal(out=eps[a:b])
        else:
            eps = self.eps.take((self.cursor - first[:-1]).repeat(cnt) + np.arange(first[-1]),
                                axis=0)
            self.cursor += cnt
        eps *= self.scale
        return eps

    def evaluate(self) -> tuple[np.ndarray, dict]:
        """:func:`evaluate_joined` of the queued points."""
        points, runs, sizes = (np.concatenate(a) if len(a) > 1 else a[0]
                               for a in zip(*(q[:3] for q in self.queue)))
        return evaluate_joined(self.stepper.ls, points, runs, sizes, self.stepper.n_evals)

    def accept(self, gv: np.ndarray) -> None:
        """Hand the queued points their g-values: level 0's into the slab, and the
        accepted moves into their slots; put the chains of the runs whose level
        goes on back in ``live``."""
        live, a = [], 0
        for points, runs, _, chains in self.queue:
            g = gv[a : a + points.shape[0]]
            a += points.shape[0]
            if isinstance(chains, slice):  # level 0, drawn into the slab
                self.out_g[chains] = g
                self.ended += runs.tolist()
                continue
            rows, at, slots, pbins, gamma = chains
            live.append(self._advance(rows, at, runs))
            hit = (g <= gamma).nonzero()[0]
            acc = slots.take(hit)
            self.out_v[acc] = points.view(self.out_v.dtype)[:, 0].take(hit)
            self.out_g[acc], self.out_b[acc] = g.take(hit), pbins.take(hit)
        self.queue = []
        if live:  # rounds of different runs: a merge of sorted rows
            self.live = np.sort(np.concatenate(live), kind="stable") if len(live) > 1 else live[0]

    def _advance(self, rows: np.ndarray, at: np.ndarray, stepped: np.ndarray) -> np.ndarray:
        """Write each chain's state on (accepted moves overwrite it); return the
        chains with steps left, and end the level of the runs ``stepped`` none
        of whose chains is."""
        prev = at - 1
        for b in blocks(at.size):  # no copy of every chain's point
            self.out_v[at[b]] = self.out_v[prev[b]]
        for out in (self.out_g, self.out_b):
            out[at] = out[prev]
        self.next[rows] = at + 1
        left = rows.compress(at != self.last[rows])
        first = left.searchsorted(self.bounds)
        self.ended += stepped[first[stepped + 1] == first[stepped]].tolist()
        return left

    def drop(self, k: int) -> None:
        """Forget run k's chains."""
        self.live = self.live.compress(self.live // self.n != k)


def _compact(rows: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``rows[keep]`` for increasing ``keep``, written over the first rows of
    ``rows`` a block at a time: a block's rows are read before it is written,
    and the later blocks read only rows after it."""
    out = rows[: keep.size]
    for b in blocks(keep.size):
        out[b] = rows.take(keep[b], axis=0)
    return out


def evaluate_joined(ls: LimitState, points: np.ndarray, runs: np.ndarray, sizes: np.ndarray,
                    n_evals: np.ndarray) -> tuple[np.ndarray, dict]:
    """g-values of ``points``, the ``sizes[i]`` points of run ``runs[i]`` stacked in
    that order, each run at most once, and each charged its points on its entry of
    ``n_evals``: from one g-call if it succeeds, else run by run. A run whose
    points make g fail maps to its error (its values unset), whose ``n_evals``
    is then the run's count; a shared call that fails is charged to no run."""
    if runs.size > 1:
        try:
            gv = evaluate_batch(ls, points)
        except EvaluationError:
            pass
        else:
            n_evals[runs] += sizes
            return gv, {}
    gv, failed, a = np.empty(points.shape[0]), {}, 0
    for k, size in zip(runs.tolist(), sizes.tolist()):
        n_evals[k] += size
        try:
            gv[a : a + size] = evaluate_batch(ls, points[a : a + size])
        except EvaluationError as exc:
            exc.n_evals = int(n_evals[k])
            failed[k] = exc
        a += size
    return gv, failed


def run_steps(steps) -> list:
    """Drive the runs of a group stepper in lockstep and return their results.

    The stepper holds the group: the problem ``ls``, the population size ``n``,
    each run k's ``streams[k]`` and ``results[k]``, the int64 array
    ``n_evals`` of each run's g-evaluations, and their ``partition`` and
    ``mcmc``. Its ``send(ks, slab)`` takes the runs ``ks``
    whose level ended at one step, in order, and the slab ``(points, gvals,
    bins)``, run k's population at index k, as views valid until the runs'
    next request: at the start, every run and ``None``. It returns ``(runs,
    request)`` pairs: ``None`` at the start, for each run's level 0 of ``n``
    points, which it draws from its stream into its rows of the slab, or a
    :class:`ChainRequest` of the runs, each run's counts summing to ``n`` and
    its table row one entry a bin (the stepper keeps this, unchecked). A run that
    ends sets its entry of ``results``. A step makes one g-call (none without
    points) for every level 0 and every chain proposal in an open bin, each
    run charged its own points on its entry of ``n_evals``. A run whose chains take no step, or
    no step that needs g, gets its population back within the step, as often
    as it asks. A run whose own points make g fail ends with the
    :class:`EvaluationError` as its result, and is not sent again.
    """
    step = _Lockstep(steps)
    ks, slab = list(range(step.runs)), None
    while True:
        # the requests are let go once the slab has taken them: a run holds no
        # copy of its seeds, which it names by row of the slab
        for runs, want in steps.send(ks, slab) if ks else ():
            if want is None:
                step.draw()
            else:
                step.enter(np.asarray(runs), want)
        want = None
        step.propose()
        ks, slab = step.handoff()
        if ks:
            continue
        if not step.queue:
            return steps.results
        gv, failed = step.evaluate()
        step.accept(gv)
        for k, exc in failed.items():
            steps.results[k] = exc
            step.drop(k)
        ks, slab = step.handoff()
        ks = [k for k in ks if k not in failed]


def run_alone(results: list):
    """The result of a group of one; an :class:`EvaluationError` is raised."""
    out = results[0]
    if isinstance(out, EvaluationError):
        raise out
    return out


def residual_resample(n_seeds: np.ndarray, n_target: int, streams: list) -> np.ndarray:
    """Equal-weight residual resampling of one or more runs: offspring counts
    for each seed, stacked run by run.

    Run i has ``m = n_seeds[i]`` seeds, an integer array of one entry a
    stream. Each receives floor(n_target / m) offspring deterministically;
    the remaining r = n_target - m * floor(...) are assigned by a
    multinomial draw with equal probabilities from ``streams[i]``, made
    only if r > 0. Each run's counts sum to ``n_target``. The deterministic
    shares of all runs are one array; only the multinomial draws are made
    run by run. The caller keeps m >= 1 and n_target >= 1 (unchecked).
    """
    base, rest = np.divmod(n_target, n_seeds)
    counts, end = base.repeat(n_seeds), 0
    for m, r, stream in zip(n_seeds.tolist(), rest.tolist(), streams):
        end += m
        if r:
            counts[end - m : end] += stream.multinomial(r, np.full(m, 1.0 / m))
    return counts


# offsets of x_(i) and x_(i+1) from position start + i of a bin's sorted values
_LO_HI = np.array([[-1], [0]])


def interp_quantile(values, bins, counts, rho: float) -> np.ndarray:
    """Quantile of order ``rho`` of each bin's values, by linear interpolation
    of the empirical CDF and one sort of the population.

    With bin j's values sorted, x_(1) <= ... <= x_(k), and h = (k - 1) * rho
    + 1, entry j is x_(floor(h)) + (h - floor(h)) * (x_(floor(h)+1) -
    x_(floor(h))); a single value is returned as-is, and a bin with no
    values gives NaN. The population is sorted once by (bin, value);
    per-bin offsets come from the bin counts, and the interpolation is
    done for all bins at once. The caller keeps, unchecked: ``values`` and
    ``bins`` are 1-D arrays of at least one float and its integer bin,
    ``counts`` is ``np.bincount(bins)`` with one entry a bin, 0 < rho < 1.
    """
    k = counts
    # value order, then a stable sort by bin, which is a radix sort for
    # up to 2**16 bins
    order = values.argsort()
    by_bin = bins[order].astype(np.uint16 if k.size <= 1 << 16 else np.int64)
    order = order[by_bin.argsort(kind="stable")]
    # with h = (k - 1) * rho + 1 and i = floor(h),
    # x_(i) of bin j is the value at position end_j - k_j + i - 1 of order
    h = (k - 1) * rho + 1.0
    i = h.astype(np.int64)  # h > 0, so truncation is floor
    x_lo, x_hi = values[order.take(k.cumsum() - k + i + _LO_HI, mode="clip")]
    # i == k is the round-up guard (and covers k == 1); it also holds
    # for empty bins, whose entries are then replaced by NaN
    q = np.where(i < k, x_lo + (h - i) * (x_hi - x_lo), x_lo)
    q[k == 0] = np.nan
    return q
