"""Failure-probability estimators: brute-force Monte Carlo, subset
simulation, and directional subset simulation.

All three estimate P(g(Theta) <= 0) for Theta ~ N(0, I_n) and return a
:class:`RunResult` carrying the estimate, the per-bin decomposition,
per-level diagnostics, and the exact number of g-evaluations spent.

The estimators run in groups, of one for ``run_mcs``, ``run_ss`` and
``run_dss`` and larger for the replicate harness, whose runs share each
step's g-call. ``mcs_group`` runs MCS itself, chunk by chunk. SS and dSS
share one level loop, ``DssGroup``, a stepper that the lockstep loop
``kernels.run_steps`` drives: it holds the group's fixed state and its
runs' bins in one table, requests only what changes, and its runs share
the chain slab; the runs that end a level at the same step share one
threshold update and one handoff of their seeds to the slab.

Subset simulation (SS) runs one sequence of adaptive thresholds over
the whole space. Directional subset simulation (dSS) runs a sequence of
thresholds per bin of a conic partition so that every direction stays
populated: the acceptance region at each level is the union of bin-wise
sub-level sets, bins that reach the limit state are frozen and removed
from sampling, and the run stops once the residual upper bound of the
still-open bins is negligible next to the frozen estimate. SS is dSS
with a single bin.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_count, check_open_interval
from .gaussian import RandomStream
from .kernels import (  # noqa: F401 - perfbench/spans.py patches propagate_chains here
    ChainRequest,
    McmcConfig,
    evaluate_joined,
    interp_quantile,
    propagate_chains,
    residual_resample,
    run_alone,
    run_steps,
)
from .limitstate import LimitState
from .partition import Partition, make_single_bin

# consecutive empty levels after which an active bin is written off
_STARVE_LIMIT = 3

# points drawn and evaluated per g-call of Monte Carlo
_MCS_CHUNK = 1_000_000

_EXTINCT = "sampler went extinct before reaching the limit state"


@dataclass(frozen=True)
class BinOutcome:
    """Terminal state of one bin of a run.

    ``status`` is "finished" (the bin reached the limit state at
    ``level``, contributing ``pi_hat = p0 * rho**level * p_final``),
    "unresolved" (still open at termination), or "starved" (written off
    after staying empty for several levels). Open and starved bins
    carry their residual upper bound in ``bound`` and contribute 0 to
    the estimate.
    """

    bin: int
    status: str
    level: int | None
    p_final: float | None
    pi_hat: float
    bound: float


@dataclass(frozen=True)
class LevelRecord:
    """Per-level diagnostics: thresholds after the update at this level,
    particle counts per bin, seeds available for the next level, the
    frozen estimate so far and the residual upper bound.

    ``gamma`` is an ``array('d')`` and ``counts`` an ``array('q')``, one
    entry a bin: 8 bytes a number, held inline, which ``np.frombuffer``
    reads without a copy. Records compare equal field by field, but an
    array is unhashable, so a record is too.
    """

    level: int
    gamma: array
    counts: array
    n_seeds: int
    pf_finished: float
    upper_bound: float


@dataclass(frozen=True)
class RunResult:
    """One run's estimate and diagnostics.

    ``reason`` says why a run has status "failed" and is empty otherwise.
    """

    algorithm: str
    pf_hat: float
    bin_outcomes: tuple[BinOutcome, ...]
    levels: int
    n_evals: int
    unresolved_bound: float
    status: str  # converged | max_levels | failed
    level_records: tuple[LevelRecord, ...]
    failure_points: np.ndarray
    reason: str = ""


def run_mcs(ls: LimitState, n: int, stream: RandomStream) -> RunResult:
    """Brute-force Monte Carlo: fraction of n i.i.d. draws with g <= 0, run as
    a :func:`mcs_group` of one."""
    return run_alone(mcs_group(ls, n, [stream]))


def mcs_group(ls: LimitState, n: int, streams: list[RandomStream]) -> list:
    """:func:`run_mcs` for a group of runs; return the runs' results.

    Each live run k draws its next chunk of at most ``_MCS_CHUNK`` points
    from ``streams[k]``, and the group's chunks are evaluated, each run
    charged its own, in one g-call (:func:`kernels.evaluate_joined`); a
    run whose points make g fail ends with the :class:`EvaluationError`
    as its result and draws no further chunk.
    """
    check_count(n, "n", unit=" sample")
    dim, n_evals = ls.dimension, np.zeros(len(streams), np.int64)
    fail_pts: list[list | None] = [[] for _ in streams]
    results: list = [None] * len(streams)
    live, done = list(range(len(streams))), 0
    while live and done < n:
        size = min(_MCS_CHUNK, n - done)
        done += size
        points = np.empty((len(live), size, dim))
        for k, out in zip(live, points):
            streams[k].standard_normal(out=out)
        gv, failed = evaluate_joined(ls, points.reshape(-1, dim), np.array(live),
                                     np.full(len(live), size), n_evals)
        for k, p, g in zip(live, points, gv.reshape(len(live), size)):
            if k in failed:
                results[k] = failed[k]
            else:
                fail_pts[k].append(p[g <= 0.0])
        live = [k for k in live if k not in failed]
    for k in live:
        fail = np.vstack(fail_pts[k])
        fail_pts[k] = None  # the result holds the one copy
        pf = len(fail) / n
        record = LevelRecord(0, array("d", [0.0]), array("q", [n]), len(fail), pf, 0.0)
        results[k] = RunResult("mcs", pf, (BinOutcome(0, "finished", 0, pf, pf, 0.0),), 1,
                               int(n_evals[k]), 0.0, "converged", (record,), fail)
    return results


def run_ss(
    ls: LimitState,
    n: int,
    rho: float = 0.2,
    mcmc: McmcConfig | None = None,
    max_levels: int = 50,
    stream: RandomStream | None = None,
) -> RunResult:
    """Subset simulation with adaptive intermediate thresholds.

    SS is :func:`run_dss` with a single bin, run by the same level loop
    (:class:`DssGroup`). Starting from n i.i.d. draws, each round sets
    the next threshold to the rho-quantile of the current g-values;
    particles below it seed the next population (residual-resampled to
    n and extended by Markov chains constrained to the new sub-level
    set). Once the quantile reaches zero the estimate is rho**(T-1)
    times the failing fraction of the final population. Unlike dSS, the
    threshold of level ``max_levels - 1`` is forced to zero, and the run
    is flagged "max_levels" unless its quantile had reached zero there;
    the last level record counts the failing points as its seeds.
    Without a ``stream`` the run draws from ``RandomStream(0)``.
    """
    stream = RandomStream(0) if stream is None else stream
    # SS has no stop tolerance: any positive eps_tol
    return run_alone(run_steps(DssGroup(ls, make_single_bin(ls.dimension), n, rho, mcmc, 1.0,
                                        max_levels, [stream], "ss")))


def run_dss(
    ls: LimitState,
    partition: Partition,
    n: int,
    rho: float = 0.2,
    mcmc: McmcConfig | None = None,
    eps_tol: float = 1e-3,
    max_levels: int = 50,
    stream: RandomStream | None = None,
) -> RunResult:
    """Directional subset simulation over a conic partition.

    Level 0 classifies n i.i.d. draws into bins. Each round then updates
    one threshold per open bin to the rho-quantile of that bin's
    g-values (clamped to be non-increasing). A bin whose quantile dips
    to zero or below is finished: its contribution
    p0 * rho**level * (failing fraction) is frozen and the bin leaves
    the sampling region. The run stops when the residual upper bound
    U = sum over open bins of p0 * rho**(level+1) (plus any mass written
    off to starvation) falls to at most ``eps_tol`` times the frozen
    estimate, when no bins remain open, or at ``max_levels``. Otherwise
    the particles inside the updated bin-wise sub-level sets seed the
    next population of size n via residual resampling and constrained
    Markov chains; chains may move between open bins. Without a
    ``stream`` the run draws from ``RandomStream(0)``.

    A level costs O(n log n) whatever the number of bins: all bins'
    quantiles come from one sort of the population.
    """
    stream = RandomStream(0) if stream is None else stream
    return run_alone(run_steps(DssGroup(ls, partition, n, rho, mcmc, eps_tol, max_levels,
                                        [stream])))


class DssGroup:
    """:func:`run_dss` for a group of runs, as the stepper :func:`kernels.run_steps` drives;
    with ``algorithm="ss"`` and a single bin, :func:`run_ss`.

    Run k draws from ``streams[k]`` and counts its g-evaluations in entry
    k of the group's int64 array ``n_evals``, charged in one add for the
    runs of a step's shared g-call (:func:`kernels.evaluate_joined`). Its
    level 0 is ``n`` points that the lockstep loop draws from its stream
    into its rows of the chain slab and classifies there, its later
    levels are populations its chains write there: it reads every level
    in place. The runs whose level ends at one step are handed the whole
    slab, run k's population at index k, read their g-values and bins
    there (or copy only those, when their rows are not adjacent), and
    share one level update: one bin count and one
    :func:`interp_quantile` over the key ``run * J + bin`` (a bin's
    quantile depends on its own values only, so each run gets its own bit
    for bit), one mask each to finish, starve and seed bins, and one write
    of the bins that finish or starve into the group's bin table, a row a
    run, from which a run's :class:`BinOutcome` tuple is made when it ends.
    The runs that go on name their seeds by row of the slab, in one
    :class:`ChainRequest`, and the slab gathers them into their chains;
    failing points are gathered by slab row too. Only each run's
    multinomial draw of resampling, in its own stream, and its level
    record stay run by run. A run whose seeds fill its population takes
    no chain step; the slab hands its seeds back at once, and its next
    level follows in the same step.
    """

    def __init__(self, ls: LimitState, partition: Partition, n: int, rho: float,
                 mcmc: McmcConfig | None, eps_tol: float, max_levels: int,
                 streams: list[RandomStream], algorithm: str = "dss"):
        check_count(n, "n", 2, unit=" samples per level")
        check_open_interval(rho, "rho")
        check_open_interval(eps_tol, "eps_tol", math.inf)
        check_count(max_levels, "max_levels")
        if partition.dimension != ls.dimension:
            raise ConfigurationError(
                f"partition dimension {partition.dimension} does not match "
                f"problem dimension {ls.dimension}"
            )
        self.ls, self.partition, self.n, self.rho = ls, partition, n, rho
        self.mcmc, self.eps_tol, self.max_levels = mcmc or McmcConfig(), eps_tol, max_levels
        self.streams, self.n_evals = streams, np.zeros(len(streams), np.int64)
        self.p0 = partition.probs
        self.algorithm = algorithm
        shape = (len(streams), partition.n_bins)
        self.gamma = np.full(shape, np.inf)
        self.active = np.ones(shape, dtype=bool)
        self.empty_streak = np.zeros(shape, dtype=np.int64)
        # the bin table: the level a bin finished at (-1 until then), its failing
        # fraction and contribution, and a starved bin's bound
        self.level = np.full(shape, -1, dtype=np.int64)
        self.p_final, self.pi, self.bound = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        # per run: its level, p0 summed over its open bins, the mass written
        # off to starvation and the frozen estimate, summed in the order bins finish
        self.t = np.zeros(len(streams), dtype=np.int64)
        self.open_mass = np.full(len(streams), float(self.p0.sum()))
        self.starved_mass = np.zeros(len(streams))
        self.d = np.zeros(len(streams))
        # each run's failing points, after an empty block for vstack
        self.fail_pts: list[list | None] = [[np.empty((0, ls.dimension))] for _ in streams]
        self.records: list[list] = [[] for _ in streams]
        self.results: list = [None] * len(streams)
        self.rho_pow = np.ones(1)  # see _powers
        self.bin_offsets = (np.arange(len(streams)) * partition.n_bins)[:, None]

    def send(self, ks: list[int], slab) -> list[tuple]:
        """End the level of the runs ``ks`` from the slab ``(points, gvals, bins)``, run
        k's population at index k, level 0's too, or ``None`` at the start, when every
        run asks for its level 0; return one request for the chains of all the runs
        that go on, their seeds named by row of the slab."""
        if slab is None:
            return [(ks, None)]
        pts, slab_g, slab_b = slab
        rho, ss, rows = self.rho, self.algorithm == "ss", np.array(ks)
        # the runs' g-values and bins, read in the slab where their rows are adjacent
        # (at level 0 and most steps), and int64 keys, n numbers each
        if ks[-1] - ks[0] == len(ks) - 1:
            gv, bins = slab_g[ks[0] : ks[-1] + 1], slab_b[ks[0] : ks[-1] + 1]
        else:
            gv, bins = slab_g.take(rows, axis=0), slab_b.take(rows, axis=0)
        key = bins + self.bin_offsets[: rows.size]
        shift = (rows - np.arange(rows.size)) * self.n  # from a run's row here to the slab's
        counts = np.bincount(key.ravel(), minlength=rows.size * self.p0.size)
        counts_per_bin = counts.reshape(rows.size, -1)
        active = self.active[rows]
        filled = active & (counts_per_bin > 0)
        # an empty bin stays open so global moves can repopulate it, but
        # is written off after a few empty levels
        empty_streak = (self.empty_streak[rows] + 1) * (active ^ filled)
        starve = empty_streak >= _STARVE_LIMIT
        # the quantile of an empty bin is NaN, which fmin skips: its
        # threshold stays as it was
        q = interp_quantile(gv.ravel(), key.ravel(), counts, rho)
        gamma = np.fmin(q.reshape(active.shape), self.gamma[rows])
        t = self.t[rows]
        if ss:  # SS's last level forces its one threshold to 0
            gamma[t == self.max_levels - 1] = 0.0
        finish = filled & (gamma <= 0.0)
        closing = starve | finish
        gamma[finish] = 0.0
        active &= ~closing
        self.gamma[rows], self.active[rows], self.empty_streak[rows] = gamma, active, empty_streak
        powers = self._powers(t.max() + 1)
        if np.count_nonzero(closing):
            self._close_bins(rows, t, powers, starve, finish, active, pts, gv, key,
                             counts_per_bin, shift)

        # a seed lies at or below the threshold table, -inf for a closed bin but
        # for SS, whose last record counts its failing points (g-values are
        # finite); an SS run that goes on has its one bin open either way
        table = gamma if ss else np.where(active, gamma, -np.inf)
        seed = gv <= table.ravel().take(key)
        n_seeds = seed.sum(axis=1)
        d = self.d[rows]
        u = self.open_mass[rows] * powers[t + 1] + self.starved_mass[rows]
        for k, *record in zip(ks, t.tolist(), _rows(gamma, "d"), _rows(counts_per_bin, "q"),
                              n_seeds.tolist(), d.tolist(), u.tolist()):
            self.records[k].append(LevelRecord(*record))
        # SS converges once its quantile reaches 0
        bound_met = q <= 0.0 if ss else (d > 0.0) & (u <= self.eps_tol * d)
        any_open = active.any(axis=1)
        stop = bound_met | ~any_open | (t == self.max_levels) | (n_seeds == 0)
        for r in stop.nonzero()[0].tolist():
            failed = not bound_met[r] and any_open[r] and t[r] < self.max_levels
            self._finish(ks[r], "converged" if bound_met[r] else
                         "failed" if failed else "max_levels")
        go = (~stop).nonzero()[0]
        if not go.size:
            return []
        going = rows[go]
        self.t[going] += 1
        # the seeds, run by run, named by row of the slab: with m <= n seeds,
        # each has an offspring, and one a second unless m == n; such a run
        # takes no chain step, and its seeds are its next population
        seed[stop] = False
        m = n_seeds[go]
        at = seed.ravel().nonzero()[0] + shift[go].repeat(m)
        streams = [self.streams[k] for k in going.tolist()]
        return [(going, ChainRequest(
            pts.reshape(-1, pts.shape[2]), slab_g.ravel(), slab_b.ravel(), at, m,
            residual_resample(m, self.n, streams), table[go],
        ))]

    def _powers(self, top: int) -> np.ndarray:
        """rho**i at entry i, for i up to ``top`` at least, as Python's float power gives it."""
        if top >= self.rho_pow.size:
            self.rho_pow = np.array([self.rho**i for i in range(2 * int(top) + 1)])
        return self.rho_pow

    def _close_bins(self, rows, t, powers, starve, finish, active, pts, gv, key, counts,
                    shift) -> None:
        """Write off the starved bins and freeze the finished ones of the runs ``rows``
        into the bin table at once; ``np.add.at`` adds to each run's sums in turn,
        bin by bin, as alone."""
        p0 = self.p0
        sr, sj = starve.nonzero()
        b = p0[sj] * powers[t[sr] + 1]
        self.bound[rows[sr], sj] = b
        np.add.at(self.starved_mass, rows[sr], b)
        fin = finish.any(axis=1).nonzero()[0]  # the runs that finish bins
        # the failing points of the finished bins, gathered from the slab at
        # once, run by run and bin by bin
        idx = (finish.ravel().take(key) & (gv <= 0.0)).ravel().nonzero()[0]
        fail_key = key.ravel().take(idx)
        idx = idx.take(fail_key.argsort(kind="stable"))
        n_fail = np.bincount(fail_key, minlength=counts.size).reshape(counts.shape)
        fr, fj = finish.nonzero()
        p_final = n_fail[fr, fj] / counts[fr, fj]
        pi_hat = p0[fj] * powers[t[fr]] * p_final
        self.level[rows[fr], fj], self.p_final[rows[fr], fj] = t[fr], p_final
        self.pi[rows[fr], fj] = pi_hat
        np.add.at(self.d, rows[fr], pi_hat)
        run_of = idx // gv.shape[1]
        got = pts.reshape(-1, pts.shape[2]).take(idx + shift.take(run_of), axis=0)
        ends = np.bincount(run_of, minlength=gv.shape[0])[fin].cumsum().tolist()
        for i, r in enumerate(fin.tolist()):
            self.fail_pts[rows[r]].append(got[ends[i - 1] if i else 0 : ends[i]])
        for r in (starve | finish).any(axis=1).nonzero()[0].tolist():
            self.open_mass[rows[r]] = p0[active[r]].sum()

    def _finish(self, k: int, status: str) -> None:
        t = int(self.t[k])
        bound = np.where(self.active[k], self.p0 * self.rho ** (t + 1), self.bound[k]).tolist()
        pi = self.pi[k].tolist()
        bins = zip(self.level[k].tolist(), self.p_final[k].tolist(), pi, bound,
                   self.active[k].tolist())
        outcomes = tuple(BinOutcome(j, "finished", lv, pf, p, 0.0) if lv >= 0 else
                         BinOutcome(j, "unresolved" if a else "starved", None, None, 0.0, b)
                         for j, (lv, pf, p, b, a) in enumerate(bins))
        self.results[k] = RunResult(
            algorithm=self.algorithm,
            pf_hat=sum(pi),  # in bin order; the other bins' zeros add exactly
            bin_outcomes=outcomes,
            levels=t + 1,
            n_evals=int(self.n_evals[k]),
            unresolved_bound=sum(bound),
            status=status,
            level_records=tuple(self.records[k]),
            failure_points=np.vstack(self.fail_pts[k]),
            reason=_EXTINCT if status == "failed" else "",
        )
        self.fail_pts[k] = None  # the result holds the one copy


def _rows(table: np.ndarray, typecode: str) -> list[array]:
    """The rows of a 2-D table as arrays of ``typecode``, each allocated at its
    exact size: the table's bytes in one flat array, then a slice a row, with no
    Python number made."""
    flat, width = array(typecode, table.astype(typecode, copy=False).tobytes()), table.shape[1]
    return [flat[i : i + width] for i in range(0, len(flat), width)]
