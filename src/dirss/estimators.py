"""Failure-probability estimators: brute-force Monte Carlo, subset
simulation, and directional subset simulation.

All three estimate P(g(Theta) <= 0) for Theta ~ N(0, I_n) and return a
:class:`RunResult` carrying the estimate, the per-bin decomposition,
per-level diagnostics, and the exact number of g-evaluations spent.

Subset simulation (SS) runs one sequence of adaptive thresholds over
the whole space. Directional subset simulation (dSS) runs a sequence of
thresholds per bin of a conic partition so that every direction stays
populated: the acceptance region at each level is the union of bin-wise
sub-level sets, bins that reach the limit state are frozen and removed
from sampling, and the run stops once the residual upper bound of the
still-open bins is negligible next to the frozen estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .gaussian import RandomStream
from .kernels import (
    AcceptRegion,
    McmcConfig,
    binned_quantiles,
    interp_quantile,
    propagate_chains,
    residual_resample,
)
from .limitstate import EvalCounter, LimitState, evaluate_batch
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


def level_snapshot(result: RunResult) -> tuple[LevelRecord, ...]:
    """Per-level records of a completed run (thresholds, counts, seeds)."""
    if not result.level_records:
        raise ConfigurationError("run has no level records")
    return result.level_records


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
    if n < 1:
        raise ConfigurationError("Monte Carlo needs at least 1 sample")
    ctr = EvalCounter()
    n_fail = 0
    fail_pts: list[np.ndarray] = []
    done = 0
    while done < n:
        k = min(chunk_size, n - done)
        pts = stream.standard_normal((k, ls.dimension))
        gv = evaluate_batch(ls, pts, ctr)
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

    Starting from n i.i.d. draws, each round sets the next threshold to
    the rho-quantile of the current g-values; particles below it seed
    the next population (residual-resampled to n and extended by Markov
    chains constrained to the new sub-level set). Once the quantile
    reaches zero the estimate is rho**(T-1) times the failing fraction
    of the final population. If ``max_levels`` rounds pass first, the
    final threshold is forced to zero and the run is flagged. Without a
    ``stream`` the run draws from ``RandomStream(0)``.
    """
    if n < 2:
        raise ConfigurationError("subset simulation needs at least 2 samples per level")
    if not 0.0 < rho < 1.0:
        raise ConfigurationError(f"level probability must lie in (0, 1), got {rho}")
    if max_levels < 1:
        raise ConfigurationError("max_levels must be at least 1")
    mcmc = mcmc or McmcConfig()
    stream = RandomStream(0) if stream is None else stream
    single = make_single_bin(ls.dimension)

    ctr = EvalCounter()
    pts = stream.standard_normal((n, ls.dimension))
    gv = evaluate_batch(ls, pts, ctr)
    bins = np.zeros(n, dtype=np.int64)
    records: list[LevelRecord] = []
    gamma_prev = math.inf

    for t in range(1, max_levels + 1):
        gamma_t = min(interp_quantile(gv, rho), gamma_prev)
        if gamma_t <= 0.0 or t == max_levels:
            fail = gv <= 0.0
            p_final = float(fail.mean())
            pf = rho ** (t - 1) * p_final
            status = "converged" if gamma_t <= 0.0 else "max_levels"
            records.append(
                LevelRecord(t - 1, (0.0,), (n,), int(fail.sum()), pf, 0.0)
            )
            outcome = BinOutcome(0, "finished", t - 1, p_final, pf, 0.0)
            return RunResult(
                "ss", pf, (outcome,), t, ctr.count, 0.0, status,
                tuple(records), pts[fail],
            )
        seed_mask = gv <= gamma_t
        m = int(seed_mask.sum())
        records.append(LevelRecord(t - 1, (gamma_t,), (n,), m, 0.0, rho**t))
        if m == 0:  # unreachable with an interpolated quantile; kept as a guard
            outcome = BinOutcome(0, "unresolved", None, None, 0.0, rho ** (t - 1))
            return RunResult(
                "ss", 0.0, (outcome,), t, ctr.count, rho ** (t - 1), "failed",
                tuple(records), np.empty((0, ls.dimension)), _EXTINCT,
            )
        counts = residual_resample(m, n, stream)
        region = AcceptRegion.global_threshold(gamma_t)
        pts, gv, bins = propagate_chains(
            pts[seed_mask], gv[seed_mask], bins[seed_mask],
            counts, region, mcmc, stream, ls, single, ctr,
        )
        gamma_prev = gamma_t
    raise AssertionError("unreachable: loop always returns")


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
    if n < 2:
        raise ConfigurationError("directional subset simulation needs at least 2 samples")
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
    mcmc = mcmc or McmcConfig()
    stream = RandomStream(0) if stream is None else stream

    ctr = EvalCounter()
    n_bins = partition.n_bins
    p0 = partition.probs
    pts = stream.standard_normal((n, ls.dimension))
    gv = evaluate_batch(ls, pts, ctr)
    bins = partition.classify(pts)

    gamma = np.full(n_bins, np.inf)
    active = np.ones(n_bins, dtype=bool)
    empty_streak = np.zeros(n_bins, dtype=np.int64)
    outcomes: dict[int, BinOutcome] = {}
    starved_mass = 0.0
    d = 0.0  # frozen estimate, summed in the order bins finish
    fail_pts: list[np.ndarray] = []
    records: list[LevelRecord] = []
    status = "failed"

    for t in range(max_levels + 1):
        counts_per_bin = np.bincount(bins, minlength=n_bins)
        filled = active & (counts_per_bin > 0)
        # an empty bin stays open so global moves can repopulate it, but
        # is written off after a few empty levels
        empty_streak = np.where(active ^ filled, empty_streak + 1, 0)
        starve = empty_streak >= _STARVE_LIMIT
        if starve.any():
            for j in np.flatnonzero(starve).tolist():
                bound = float(p0[j]) * rho ** (t + 1)
                starved_mass += bound
                outcomes[j] = BinOutcome(j, "starved", None, None, 0.0, bound)
            active &= ~starve
        # the quantile of an empty bin is NaN, which fmin skips: its
        # threshold stays as it was
        gamma = np.fmin(binned_quantiles(gv, bins, n_bins, rho), gamma)
        finish = filled & (gamma <= 0.0)
        if finish.any():
            fail = gv <= 0.0
            n_fail = np.bincount(bins[fail], minlength=n_bins)
            for j in np.flatnonzero(finish).tolist():
                p_final = float(n_fail[j] / counts_per_bin[j])
                pi_hat = float(p0[j]) * rho**t * p_final
                outcomes[j] = BinOutcome(j, "finished", t, p_final, pi_hat, 0.0)
                d += pi_hat
            # failing points of the finished bins, bin by bin
            idx = np.flatnonzero(finish[bins] & fail)
            fail_pts.append(pts[idx[np.argsort(bins[idx], kind="stable")]])
            gamma[finish] = 0.0
            active &= ~finish

        u = float(p0[active].sum()) * rho ** (t + 1) + starved_mass
        seed_mask = active[bins] & (gv <= gamma[bins])
        m = int(seed_mask.sum())
        records.append(
            LevelRecord(
                t, tuple(gamma.tolist()), tuple(counts_per_bin.tolist()), m, d, u
            )
        )

        bound_met = d > 0.0 and u <= eps_tol * d
        if not active.any() or bound_met:
            status = "converged" if bound_met else "max_levels"
            break
        if t == max_levels:
            status = "max_levels"
            break
        if m == 0:
            status = "failed"
            break
        counts = residual_resample(m, n, stream)
        region = AcceptRegion(active.copy(), gamma.copy())
        pts, gv, bins = propagate_chains(
            pts[seed_mask], gv[seed_mask], bins[seed_mask],
            counts, region, mcmc, stream, ls, partition, ctr,
        )

    for j in np.flatnonzero(active):
        outcomes[j] = BinOutcome(
            int(j), "unresolved", None, None, 0.0, float(p0[j]) * rho ** (t + 1)
        )
    ordered = tuple(outcomes[j] for j in range(n_bins))
    pf = float(sum(o.pi_hat for o in ordered if o.status == "finished"))
    return RunResult(
        algorithm="dss",
        pf_hat=pf,
        bin_outcomes=ordered,
        levels=t + 1,
        n_evals=ctr.count,
        unresolved_bound=float(sum(o.bound for o in ordered)),
        status=status,
        level_records=tuple(records),
        failure_points=_stack_points(fail_pts, ls.dimension),
        reason=_EXTINCT if status == "failed" else "",
    )
