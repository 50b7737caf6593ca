"""Replicated experiments and their summary statistics.

A :class:`ExperimentConfig` describes one experiment declaratively;
:func:`replicate` runs it m times with pre-assigned random streams
(run i always uses stream_id i, so results are reproducible under any
degree of parallelism), and :func:`summarize` reduces the results to
the statistics used for benchmarking: mean estimate, coefficient of
variation, the log-scale root-mean-square error R against a reference
value, and the average evaluation cost.

Runs are advanced in groups, in lockstep: every step, the points that
the runs of a group need evaluated are joined into one g-call, and each
run counts its own points. A run's result does not depend on the group
it ran in.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .errors import ConfigurationError, EvaluationError, check_count, check_open_interval
from .estimators import (  # noqa: F401 - perfbench/spans.py patches run_ss, run_dss here
    BinOutcome,
    DssGroup,
    RunResult,
    mcs_group,
    run_dss,
    run_ss,
)
from .gaussian import RandomStream
from .kernels import McmcConfig, run_steps
from .limitstate import LimitState, get_problem, problem_factory, register_problem
from .partition import Partition, from_spec, make_single_bin

ALGORITHMS = ("mcs", "ss", "dss")

# Runs of a group share g-calls; a group holds _GROUP_POINTS // (n * dim) runs, but
# at least five while n * dim <= _GROUP_POINTS (see group_size). 2**18 was chosen
# by a sweep of 2**16 ... 2**20 over dSS and SS batches (n=500 to 4000, cheap g):
# it was fastest, or within noise of 2**19, on each, 2**19 peaked about 10 MB
# higher, and at 2**20 1000 cheap runs were slower. A slab array of 2**18 float64
# is 2 MiB, one core's L2 cache on the 2-core Xeon it was measured on.
# A group makes as many g-calls as the busiest of its runs alone, so the floor
# sets the g-calls of large runs. Floors 3 to 8 on the orthants_d10 config (dSS,
# 1024 orthants, n=20000 in 10-D, n*dim = 200000), 20 runs in batches of 5, 10
# and 20; the medians of three alternating passes, the traced peak of a batch's
# replicate (with the results it holds):
#   floor   g-calls a run      traced peak, MB     ru_maxrss, MB      CPU, ms a run
#   3       14.45 14.75 12.90  15.8 19.4 25.0      58.0 58.3 65.0     42.1 43.5 42.3
#   4       14.40 11.15  9.35  20.9 22.8 30.3      60.0 62.5 69.7     44.0 43.0 43.5
#   5        7.40  7.50  7.50  26.0 28.7 35.1      65.0 68.7 75.3     47.9 44.1 42.4
#   6        7.40  7.50  7.55  26.0 30.7 37.7      65.0 72.0 78.0     43.9 43.6 45.7
#   7        7.40  7.55  5.70  26.0 35.9 39.7      64.9 76.9 81.9     42.2 41.7 55.4
#   8        7.40  7.55  5.70  26.0 41.2 45.4      65.0 81.3 86.6     48.1 43.0 46.0
# Five halves the g-calls of three at every batch size; seven and eight save
# more only in batches of 20, at 7 to 11 MB more RSS than five. CPU a run does
# not follow the floor (40-67 ms over all passes, as the host drifts), so groups
# of five large runs are no slower than groups of three. The peaks were measured
# with each run's level of normals in the slab; large runs now draw a round's
# at a time (kernels._LEVEL_DRAW), and a group peaks at about n*(dim+10)*8 bytes
# a run, or n*(2*dim+10)*8 if it draws a level's normals at once (README).
_GROUP_POINTS = 2**18

# Pinned reference probabilities for the built-in benchmarks, from
# brute-force Monte Carlo with 1e8 evaluations. `dirss reference`
# recomputes them with `run_mcs`.
REFERENCE_PF = {
    "piecewise_linear": 3.19e-5,
    "beta_points": 1.33e-6,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment (see README for the file keys).

    Making one checks each field but the problem and partition (:func:`validate_config`)."""

    problem: str
    algorithm: str
    n: int
    rho: float = 0.2
    mcmc_corr: float = 0.8
    eps_tol: float = 1e-3
    max_levels: int = 50
    partition: str = "single"
    cuts: tuple[float, ...] | None = None
    axis: int | None = None
    runs: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r} (known: {', '.join(ALGORITHMS)})"
            )
        check_count(self.n, "n", 1 if self.algorithm == "mcs" else 2)
        check_open_interval(self.rho, "rho")
        McmcConfig(self.mcmc_corr)
        check_open_interval(self.eps_tol, "eps_tol", math.inf)
        check_count(self.max_levels, "max_levels")
        check_count(self.runs, "runs")
        RandomStream(self.seed)


@dataclass(frozen=True)
class ReplicationSummary:
    """Statistics over the successful runs of one experiment.

    ``failed_runs`` counts runs with status "failed" and ``zero_runs``
    the other runs whose estimate is 0; neither enters the estimate
    statistics. ``max_levels_runs`` counts the runs with status
    "max_levels", which do enter them. With no usable run
    (``runs_used == 0``), ``mean_pf``, ``cov``, ``r_metric`` and
    ``bin_mean_pi`` are NaN.
    """

    mean_pf: float
    cov: float
    r_metric: float
    mean_evals: float
    runs_used: int
    failed_runs: int
    zero_runs: int
    max_levels_runs: int
    bin_mean_pi: tuple[float, ...]
    pf_ref: float


def build_problem(cfg: ExperimentConfig) -> LimitState:
    return get_problem(cfg.problem)


def build_partition(cfg: ExperimentConfig, dimension: int) -> Partition:
    """The partition a config runs on: its own for dSS, a single bin for SS and MCS."""
    if cfg.algorithm != "dss":
        return make_single_bin(dimension)
    return from_spec(cfg.partition, dimension, cuts=cfg.cuts, axis=cfg.axis)


def validate_config(cfg: ExperimentConfig) -> None:
    """Look up a config's problem and partition, raising ConfigurationError, and
    warn of a dSS bin that expects fewer than 10 initial samples."""
    _checked_partition(cfg, build_problem(cfg).dimension)


def _checked_partition(cfg: ExperimentConfig, dimension: int) -> Partition:
    """:func:`build_partition`, warning the caller's caller of a dSS bin that expects
    fewer than 10 initial samples."""
    part = build_partition(cfg, dimension)
    if cfg.algorithm == "dss" and cfg.n * part.probs.min() < 10:
        warnings.warn(
            f"bin with probability {part.probs.min():.3g} expects fewer than "
            f"10 of the {cfg.n} initial samples and may starve",
            UserWarning,
            stacklevel=3,
        )
    return part


def group_size(cfg: ExperimentConfig, dimension: int) -> int:
    """Runs advanced together in one group: ``_GROUP_POINTS // (n * dim)``, at
    least five while ``n * dim`` is at most ``_GROUP_POINTS``, else one.

    A group makes as many g-calls as its busiest run alone, so five runs of
    n=20000 in 10-D make half the g-calls a run of three; a group's memory is
    about n*(dim+10)*8 bytes a run, n*(2*dim+10)*8 where n*dim is at most
    ``kernels._LEVEL_DRAW`` (README)."""
    points = cfg.n * dimension
    return max(1 + 4 * (points <= _GROUP_POINTS), _GROUP_POINTS // points)


def run_single(cfg: ExperimentConfig, stream_id: int) -> RunResult:
    """Execute one run of the configured experiment with the given stream id.

    A bad config raises ConfigurationError before any g-call; a starving bin is
    not warned of (see :func:`validate_config`).
    A g that raises or returns bad values (see :class:`EvaluationError`)
    ends the run with status "failed": the result carries the error
    message as ``reason`` and the evaluations spent up to the failure;
    it has no levels, and every bin is unresolved with its whole
    probability as the bound.
    """
    return run_group(cfg, [stream_id])[0]


def run_group(cfg: ExperimentConfig, stream_ids: Sequence[int]) -> list[RunResult]:
    """Execute the runs with the given stream ids in lockstep.

    Each step, one g-call serves every run: a chunk of Monte Carlo, or a
    round of the SS or dSS runs' chains in one slab
    (:func:`dirss.kernels.run_steps`), which share one threshold update
    among the runs whose level ends; exactly the runs whose own points make g
    fail end "failed". Results equal :func:`run_single`'s, run by run.
    """
    ls = build_problem(cfg)
    return _run_group(cfg, ls, build_partition(cfg, ls.dimension), stream_ids)


def _run_group(cfg: ExperimentConfig, ls: LimitState, part: Partition,
               stream_ids: Sequence[int]) -> list[RunResult]:
    streams = [RandomStream(cfg.seed, stream_id=sid) for sid in stream_ids]
    if cfg.algorithm == "mcs":
        done = mcs_group(ls, cfg.n, streams)
    else:  # SS is dSS with a single bin
        done = run_steps(DssGroup(ls, part, cfg.n, cfg.rho, McmcConfig(cfg.mcmc_corr),
                                  cfg.eps_tol, cfg.max_levels, streams, cfg.algorithm))
    return [_failed_run(cfg, ls, part, r) if isinstance(r, EvaluationError) else r for r in done]


def _failed_run(cfg, ls, part, exc: EvaluationError) -> RunResult:
    outcomes = tuple(
        BinOutcome(j, "unresolved", None, None, 0.0, float(p)) for j, p in enumerate(part.probs)
    )
    return RunResult(
        cfg.algorithm, 0.0, outcomes, 0, exc.n_evals, 1.0, "failed", (),
        np.empty((0, ls.dimension)), reason=str(exc),
    )


def replicate(cfg: ExperimentConfig, jobs: int = 1) -> list[RunResult]:
    """Run the experiment ``cfg.runs`` times, run i on stream_id i.

    Runs go in groups of :func:`group_size` runs through
    :func:`run_group`, which serves a group with one g-call per step;
    ``n_evals`` stays per run. The problem is looked up once, and it and
    the partition serve every group that runs in this process. Per-run
    failures come back as results with status "failed" and a ``reason``:
    a sampler that went extinct, or a g that raised or returned bad
    values (see :class:`EvaluationError`). The batch itself never aborts
    on them.
    With ``jobs`` > 1 the groups, made no larger than needed to give
    every worker runs, are distributed over a process pool of at most one
    worker per group, and each worker registers the problem's factory, so
    that a problem registered at run time reaches it too. Under a start
    method other than fork the factory must pickle, or a
    :class:`ConfigurationError` is raised before any run starts. The
    pool's modules are imported only when a pool is made: a batch of one
    group runs in this process, as with ``jobs=1``, and needs no picklable
    factory.
    Results are identical for any grouping and any ``jobs``, because
    streams are pre-assigned and a run does not depend on its group.
    ``jobs`` must be a positive integer.
    """
    check_count(jobs, "jobs")
    ls = build_problem(cfg)
    part = _checked_partition(cfg, ls.dimension)
    size = group_size(cfg, ls.dimension)
    if jobs > 1:
        size = min(size, -(-cfg.runs // jobs))
    groups = [range(a, min(a + size, cfg.runs)) for a in range(0, cfg.runs, size)]
    workers = min(jobs, len(groups))
    if workers <= 1:
        return [r for g in groups for r in _run_group(cfg, ls, part, g)]
    # imported here, not with the module: they cost every fresh process about
    # 20 ms (2-core Xeon), and only a pool needs them
    import multiprocessing
    import pickle
    from concurrent.futures import ProcessPoolExecutor

    ctx, factory = multiprocessing.get_context(), problem_factory(cfg.problem)
    if (method := ctx.get_start_method()) != "fork":  # workers import dirss afresh
        try:
            pickle.dumps(factory)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise ConfigurationError(
                f"problem {cfg.problem!r} cannot reach the worker processes of the {method!r} "
                f"start method: its factory does not pickle ({exc})"
            ) from None
    # under fork, a pool starts all its workers at the first submit
    with ProcessPoolExecutor(workers, ctx, initializer=register_problem,
                             initargs=(cfg.problem, factory)) as pool:
        return [r for rs in pool.map(partial(run_group, cfg), groups) for r in rs]


def usable_runs(results: list[RunResult]) -> list[RunResult]:
    """The runs that enter the statistics: not failed, with a positive estimate."""
    return [r for r in results if r.status != "failed" and r.pf_hat > 0.0]


def summarize(results: list[RunResult], pf_ref: float) -> ReplicationSummary:
    """Reduce a batch of runs to its benchmark statistics.

    Runs that failed or returned a zero estimate, whose logarithm is
    undefined, are excluded from the mean, CoV and R, as from the CLI's
    ``hist.csv`` (:func:`usable_runs`), and counted in ``failed_runs`` and
    ``zero_runs``; runs that stopped at their level
    cap are counted in ``max_levels_runs`` by their status alone, and
    those with a positive estimate enter the statistics. The evaluation
    cost is averaged over all runs. A batch without a usable run gives
    ``runs_used == 0`` and NaN statistics: that is an outcome of the
    runs, not an error.
    """
    if not results:
        raise ConfigurationError("no runs to summarize")
    check_open_interval(pf_ref, "reference probability", math.inf)
    failed = sum(r.status == "failed" for r in results)
    capped = sum(r.status == "max_levels" for r in results)
    used = usable_runs(results)
    mean_evals = float(np.mean([r.n_evals for r in results]))
    if not used:
        nan = math.nan
        return ReplicationSummary(
            nan, nan, nan, mean_evals, 0, failed, len(results) - failed, capped,
            (nan,) * len(results[0].bin_outcomes), pf_ref,
        )
    est = np.array([r.pf_hat for r in used])
    mean_pf = float(est.mean())
    cov = float(est.std(ddof=1) / mean_pf) if est.size > 1 else 0.0
    r_metric = float(np.sqrt(np.mean(np.log10(est / pf_ref) ** 2)))
    pi = np.array([[o.pi_hat for o in r.bin_outcomes] for r in used])
    return ReplicationSummary(
        mean_pf=mean_pf,
        cov=cov,
        r_metric=r_metric,
        mean_evals=mean_evals,
        runs_used=len(used),
        failed_runs=failed,
        zero_runs=len(results) - failed - len(used),
        max_levels_runs=capped,
        bin_mean_pi=tuple(float(x) for x in pi.mean(axis=0)),
        pf_ref=pf_ref,
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-dict form of a config (tuples become lists), for JSON output."""
    out = asdict(cfg)
    if out["cuts"] is not None:
        out["cuts"] = list(out["cuts"])
    return out
