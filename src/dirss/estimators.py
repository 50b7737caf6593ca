"""Failure-probability estimators: brute-force Monte Carlo, subset
simulation, and directional subset simulation.

All three estimate P(g(Theta) <= 0) for Theta ~ N(0, I_n) and return a
:class:`RunResult` carrying the estimate, the per-bin decomposition,
per-level diagnostics, and the exact number of g-evaluations spent.

One loop (``kernels.run_steps``) advances the estimators, alone for
``run_mcs``, ``run_ss`` and ``run_dss`` and in groups for the replicate
harness, whose runs share each step's g-call and chain slab. MCS is a
step generator (``mcs_steps``) that yields the points it needs
evaluated and receives their g-values back. SS and dSS share one level
loop, a stepper for a whole group (``DssGroup``), whose runs that end a
level at the same step share one threshold update.

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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .gaussian import RandomStream
from .kernels import (  # noqa: F401 - perfbench/spans.py patches propagate_chains here
    AcceptRegion,
    ChainRequest,
    McmcConfig,
    binned_quantiles,
    interp_quantile,
    propagate_chains,
    residual_resample,
    run_alone,
)
from .limitstate import EvalCounter, LimitState
from .partition import Partition, make_single_bin

# consecutive empty levels after which an active bin is written off
_STARVE_LIMIT = 3

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
    frozen estimate so far and the residual upper bound."""

    level: int
    gamma: tuple[float, ...]
    counts: tuple[int, ...]
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


def _stack_points(chunks: list[np.ndarray], dim: int) -> np.ndarray:
    if not chunks:
        return np.empty((0, dim))
    return np.vstack(chunks)


def run_mcs(
    ls: LimitState,
    n: int,
    stream: RandomStream,
    chunk_size: int = 1_000_000,
) -> RunResult:
    """Brute-force Monte Carlo: fraction of n i.i.d. draws with g <= 0."""
    ctr = EvalCounter()
    return run_alone([mcs_steps(ls, n, stream, ctr, chunk_size)], ls, ctr, n)


def mcs_steps(
    ls: LimitState,
    n: int,
    stream: RandomStream,
    ctr: EvalCounter,
    chunk_size: int = 1_000_000,
):
    """Step generator of :func:`run_mcs`.

    ``ctr`` is the run's counter: whoever drives the generator counts
    the evaluations on it, and the result reports its count.
    """
    if n < 1:
        raise ConfigurationError("Monte Carlo needs at least 1 sample")
    n_fail = 0
    fail_pts: list[np.ndarray] = []
    done = 0
    while done < n:
        k = min(chunk_size, n - done)
        pts = stream.standard_normal((k, ls.dimension))
        gv = yield pts
        mask = gv <= 0.0
        n_fail += int(mask.sum())
        if mask.any():
            fail_pts.append(pts[mask])
        done += k
    pf = n_fail / n
    outcome = BinOutcome(
        bin=0, status="finished", level=0, p_final=pf, pi_hat=pf, bound=0.0
    )
    record = LevelRecord(
        level=0, gamma=(0.0,), counts=(n,), n_seeds=n_fail, pf_finished=pf, upper_bound=0.0
    )
    return RunResult(
        algorithm="mcs",
        pf_hat=pf,
        bin_outcomes=(outcome,),
        levels=1,
        n_evals=ctr.count,
        unresolved_bound=0.0,
        status="converged",
        level_records=(record,),
        failure_points=_stack_points(fail_pts, ls.dimension),
    )


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
    ctr = EvalCounter()
    stream = RandomStream(0) if stream is None else stream
    # SS has no stop tolerance: any positive eps_tol
    group = DssGroup(ls, make_single_bin(ls.dimension), n, rho, mcmc, 1.0, max_levels,
                     [stream], [ctr], "ss")
    return run_alone(group, ls, ctr, n)


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
    ctr = EvalCounter()
    stream = RandomStream(0) if stream is None else stream
    group = DssGroup(ls, partition, n, rho, mcmc, eps_tol, max_levels, [stream], [ctr])
    return run_alone(group, ls, ctr, n)


class DssGroup:
    """:func:`run_dss` for a group of runs, as the stepper :func:`kernels.run_steps` drives;
    with ``algorithm="ss"`` and a single bin, :func:`run_ss`.

    Run k draws from ``streams[k]`` and reports the count of ``ctrs[k]``.
    The runs whose populations come back at one step share one level
    update: one bin count and one :func:`binned_quantiles` over the key
    ``run * J + bin`` (a bin's quantile depends on its own values only,
    so each run gets its own bit for bit), one mask each to finish,
    starve and seed bins, and one gather of the kept seeds. The
    resampling, in each run's own stream, the level records and the rare
    bins that finish or starve stay run by run.
    """

    def __init__(self, ls: LimitState, partition: Partition, n: int, rho: float,
                 mcmc: McmcConfig | None, eps_tol: float, max_levels: int,
                 streams: list[RandomStream], ctrs: list[EvalCounter], algorithm: str = "dss"):
        if n < 2:
            name = "subset simulation" if algorithm == "ss" else "directional subset simulation"
            raise ConfigurationError(f"{name} needs at least 2 samples per level")
        if not 0.0 < rho < 1.0:
            raise ConfigurationError(f"level probability must lie in (0, 1), got {rho}")
        if eps_tol <= 0.0:
            raise ConfigurationError(f"eps_tol must be positive, got {eps_tol}")
        if max_levels < 1:
            raise ConfigurationError("max_levels must be at least 1")
        if partition.dimension != ls.dimension:
            raise ConfigurationError(
                f"partition dimension {partition.dimension} does not match "
                f"problem dimension {ls.dimension}"
            )
        self.ls, self.partition, self.n, self.rho = ls, partition, n, rho
        self.mcmc, self.eps_tol, self.max_levels = mcmc or McmcConfig(), eps_tol, max_levels
        self.streams, self.ctrs, self.p0 = streams, ctrs, partition.probs
        self.algorithm = algorithm
        shape = (len(streams), partition.n_bins)
        self.gamma = np.full(shape, np.inf)
        self.active = np.ones(shape, dtype=bool)
        self.empty_streak = np.zeros(shape, dtype=np.int64)
        # per run: its level, p0 summed over its open bins, the mass written
        # off to starvation and the frozen estimate, summed in the order bins finish
        self.t = [0] * len(streams)
        self.open_mass = [float(self.p0.sum())] * len(streams)
        self.starved_mass = [0.0] * len(streams)
        self.d = [0.0] * len(streams)
        self.outcomes: list[dict] = [{} for _ in streams]
        self.fail_pts: list[list] = [[] for _ in streams]
        self.records: list[list] = [[] for _ in streams]
        self.results: list = [None] * len(streams)
        self.level0: np.ndarray | None = None

    def send(self, ready: list[tuple]) -> list[tuple]:
        """Take the level-0 g-values or the new population of each ready run,
        ``None`` at the start; return the requests of the runs that go on."""
        if not ready:
            return []
        if ready[0][1] is None:  # the start: each run draws its level-0 points
            self.level0 = np.empty((len(self.t), self.n, self.ls.dimension))
            for k, _ in ready:
                self.streams[k].standard_normal(out=self.level0[k])
            return [(k, self.level0[k]) for k, _ in ready]
        # the level-0 g-values of all runs come back at one step: drop the draws after it
        level0, part, self.level0 = self.level0, self.partition, None
        pops = [v if isinstance(v, tuple) else (level0[k], v, part.classify(level0[k]))
                for k, v in ready]
        stack = np.stack if len(ready) > 1 else lambda a: a[0][None]  # one run keeps views
        return self._levels([k for k, _ in ready], *map(stack, zip(*pops)))

    def fail(self, k: int, exc: EvaluationError) -> None:
        self.results[k] = exc

    def _levels(self, ks: list[int], pts, gv, bins) -> list[tuple]:
        """End a level of runs ``ks`` from their populations, stacked run by run."""
        rho, n_bins = self.rho, self.partition.n_bins
        rows = np.array(ks)
        key = bins + (np.arange(len(ks)) * n_bins)[:, None]
        counts = np.bincount(key.ravel(), minlength=len(ks) * n_bins)
        counts_per_bin = counts.reshape(len(ks), n_bins)
        active = self.active[rows]
        filled = active & (counts_per_bin > 0)
        # an empty bin stays open so global moves can repopulate it, but
        # is written off after a few empty levels
        empty_streak = np.where(active ^ filled, self.empty_streak[rows] + 1, 0)
        starve = empty_streak >= _STARVE_LIMIT
        # the quantile of an empty bin is NaN, which fmin skips: its
        # threshold stays as it was
        q = binned_quantiles(gv.ravel(), key.ravel(), counts.size, rho, counts)
        gamma = np.fmin(q.reshape(active.shape), self.gamma[rows])
        if self.algorithm == "ss":  # SS's last level forces its one threshold to 0
            gamma[[self.t[k] == self.max_levels - 1 for k in ks]] = 0.0
        finish = filled & (gamma <= 0.0)
        closing = starve | finish
        gamma[finish] = 0.0
        active &= ~closing
        self.gamma[rows], self.active[rows], self.empty_streak[rows] = gamma, active, empty_streak
        for r in np.flatnonzero(closing.any(axis=1)).tolist():
            self._close_bins(ks[r], starve[r], finish[r], active[r], pts[r], gv[r], bins[r],
                             counts_per_bin[r])

        seed = gv <= gamma.ravel()[key]
        if self.algorithm != "ss":  # SS's last record counts its failing points
            seed &= active.ravel()[key]
        n_seeds = np.count_nonzero(seed, axis=1).tolist()
        gammas, level_counts = gamma.tolist(), counts_per_bin.tolist()
        any_open = active.any(axis=1).tolist()
        going, stopped, offspring = [], [], []
        for r, k in enumerate(ks):
            t, d, m = self.t[k], self.d[k], n_seeds[r]
            u = self.open_mass[k] * rho ** (t + 1) + self.starved_mass[k]
            self.records[k].append(
                LevelRecord(t, tuple(gammas[r]), tuple(level_counts[r]), m, d, u)
            )
            bound_met = d > 0.0 and u <= self.eps_tol * d
            if self.algorithm == "ss":  # SS converges once its quantile reaches 0
                bound_met = q[r] <= 0.0
            if not any_open[r] or bound_met:
                status = "converged" if bound_met else "max_levels"
            elif t == self.max_levels:
                status = "max_levels"
            elif m == 0:
                status = "failed"
            else:
                going.append(r)
                offspring.append(residual_resample(m, self.n, self.streams[k]))
                self.t[k] = t + 1
                continue
            self._finish(k, status)
            stopped.append(r)

        # the seeds, run by run, taken from the populations at once: with m <= n
        # seeds, each has an offspring, and one a second unless m == n; such a
        # run takes no chain step, and its seeds are its next population
        seed[stopped] = False
        at = np.flatnonzero(seed)
        seeds = pts.reshape(-1, pts.shape[2]).take(at, axis=0), gv.take(at), bins.take(at)
        ends = np.cumsum([n_seeds[r] for r in going]).tolist()
        wants, again = [], []
        for r, a, b, counts in zip(going, [0] + ends[:-1], ends, offspring):
            k, run_seeds = ks[r], tuple(s[a:b] for s in seeds)
            if b - a == self.n:
                again.append((k, run_seeds))
                continue
            region = AcceptRegion(active[r], gamma[r])
            wants.append((k, ChainRequest(
                *run_seeds, counts, region, self.mcmc, self.streams[k], self.partition
            )))
        return wants + self.send(again)

    def _close_bins(self, k, starve, finish, active, pts, gv, bins, counts) -> None:
        """Write off run k's starved bins and freeze its finished ones, bin by bin."""
        t, p0, rho, outcomes = self.t[k], self.p0, self.rho, self.outcomes[k]
        for j in np.flatnonzero(starve).tolist():
            bound = float(p0[j]) * rho ** (t + 1)
            self.starved_mass[k] += bound
            outcomes[j] = BinOutcome(j, "starved", None, None, 0.0, bound)
        if finish.any():
            fail = gv <= 0.0
            n_fail = np.bincount(bins[fail], minlength=p0.size)
            for j in np.flatnonzero(finish).tolist():
                p_final = float(n_fail[j] / counts[j])
                pi_hat = float(p0[j]) * rho**t * p_final
                outcomes[j] = BinOutcome(j, "finished", t, p_final, pi_hat, 0.0)
                self.d[k] += pi_hat
            # failing points of the finished bins, bin by bin
            idx = np.flatnonzero(finish[bins] & fail)
            self.fail_pts[k].append(pts[idx[np.argsort(bins[idx], kind="stable")]])
        self.open_mass[k] = float(p0[active].sum())

    def _finish(self, k: int, status: str) -> None:
        t, p0, rho, outcomes = self.t[k], self.p0, self.rho, self.outcomes[k]
        for j in np.flatnonzero(self.active[k]):
            outcomes[j] = BinOutcome(
                int(j), "unresolved", None, None, 0.0, float(p0[j]) * rho ** (t + 1)
            )
        ordered = tuple(outcomes[j] for j in range(p0.size))
        pf = float(sum(o.pi_hat for o in ordered if o.status == "finished"))
        self.results[k] = RunResult(
            algorithm=self.algorithm,
            pf_hat=pf,
            bin_outcomes=ordered,
            levels=t + 1,
            n_evals=self.ctrs[k].count,
            unresolved_bound=float(sum(o.bound for o in ordered)),
            status=status,
            level_records=tuple(self.records[k]),
            failure_points=_stack_points(self.fail_pts[k], self.ls.dimension),
            reason=_EXTINCT if status == "failed" else "",
        )
