"""Replicated experiments and their summary statistics.

A :class:`ExperimentConfig` describes one experiment declaratively;
:func:`replicate` runs it m times with pre-assigned random streams
(run i always uses stream_id i, so results are reproducible under any
degree of parallelism), and :func:`summarize` reduces the results to
the statistics used for benchmarking: mean estimate, coefficient of
variation, the log-scale root-mean-square error R against a reference
value, and the average evaluation cost.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .estimators import BinOutcome, RunResult, run_dss, run_mcs, run_ss
from .gaussian import RandomStream
from .kernels import McmcConfig
from .limitstate import LimitState, get_problem
from .partition import Partition, from_spec

ALGORITHMS = ("mcs", "ss", "dss")

# Pinned reference probabilities for the built-in benchmarks, from
# brute-force Monte Carlo with 1e8 evaluations. `reference_probability`
# can recompute them on demand.
REFERENCE_PF = {
    "piecewise_linear": 3.19e-5,
    "beta_points": 1.33e-6,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment (see README for the file keys)."""

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


@dataclass(frozen=True)
class ReplicationSummary:
    """Statistics over the successful runs of one experiment.

    ``failed_runs`` counts runs with status "failed" and ``zero_runs``
    the other runs whose estimate is 0; neither enters the estimate
    statistics.
    """

    mean_pf: float
    cov: float
    r_metric: float
    mean_evals: float
    runs_used: int
    failed_runs: int
    zero_runs: int
    bin_mean_pi: tuple[float, ...]
    pf_ref: float


def build_problem(cfg: ExperimentConfig) -> LimitState:
    return get_problem(cfg.problem)


def build_partition(cfg: ExperimentConfig, dimension: int) -> Partition:
    return from_spec(cfg.partition, dimension, cuts=cfg.cuts, axis=cfg.axis)


def validate_config(cfg: ExperimentConfig) -> None:
    """Check an experiment configuration, raising ConfigurationError on problems."""
    if cfg.algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm {cfg.algorithm!r} (known: {', '.join(ALGORITHMS)})"
        )
    ls = build_problem(cfg)
    if cfg.n < 1 or (cfg.algorithm != "mcs" and cfg.n < 2):
        raise ConfigurationError(f"sample count n={cfg.n} is too small")
    if not 0.0 < cfg.rho < 1.0:
        raise ConfigurationError(f"rho must lie in (0, 1), got {cfg.rho}")
    McmcConfig(cfg.mcmc_corr)
    if cfg.eps_tol <= 0.0:
        raise ConfigurationError(f"eps_tol must be positive, got {cfg.eps_tol}")
    if cfg.max_levels < 1:
        raise ConfigurationError("max_levels must be at least 1")
    if cfg.runs < 1:
        raise ConfigurationError(f"number of runs must be at least 1, got {cfg.runs}")
    RandomStream(cfg.seed)
    if cfg.algorithm == "dss":
        part = build_partition(cfg, ls.dimension)
        if cfg.n * part.probs.min() < 10:
            warnings.warn(
                f"bin with probability {part.probs.min():.3g} expects fewer than "
                f"10 of the {cfg.n} initial samples and may starve",
                UserWarning,
                stacklevel=2,
            )


def run_single(cfg: ExperimentConfig, stream_id: int) -> RunResult:
    """Execute one run of the configured experiment with the given stream id.

    A g that raises or returns bad values (see :class:`EvaluationError`)
    ends the run with status "failed": the result carries the error
    message as ``reason`` and the evaluations spent up to the failure;
    it has no levels, and every bin is unresolved with its whole
    probability as the bound.
    """
    ls = build_problem(cfg)
    stream = RandomStream(cfg.seed, stream_id=stream_id)
    mcmc = McmcConfig(cfg.mcmc_corr)
    part = build_partition(cfg, ls.dimension) if cfg.algorithm == "dss" else None
    try:
        if cfg.algorithm == "mcs":
            return run_mcs(ls, cfg.n, stream)
        if cfg.algorithm == "ss":
            return run_ss(
                ls, cfg.n, rho=cfg.rho, mcmc=mcmc, max_levels=cfg.max_levels, stream=stream
            )
        return run_dss(
            ls, part, cfg.n,
            rho=cfg.rho, mcmc=mcmc, eps_tol=cfg.eps_tol,
            max_levels=cfg.max_levels, stream=stream,
        )
    except EvaluationError as exc:
        probs = [1.0] if part is None else part.probs
        outcomes = tuple(
            BinOutcome(j, "unresolved", None, None, 0.0, float(p)) for j, p in enumerate(probs)
        )
        return RunResult(
            cfg.algorithm, 0.0, outcomes, 0, exc.n_evals, 1.0, "failed", (),
            np.empty((0, ls.dimension)), reason=str(exc),
        )


def replicate(cfg: ExperimentConfig, jobs: int = 1) -> list[RunResult]:
    """Run the experiment ``cfg.runs`` times, run i on stream_id i.

    Per-run failures come back as results with status "failed" and a
    ``reason``: a sampler that went extinct, or a g that raised or
    returned bad values (see :class:`EvaluationError`). The batch itself
    never aborts on them. With ``jobs`` > 1 runs are distributed over a
    process pool; results are identical to the sequential order because
    streams are pre-assigned.
    """
    validate_config(cfg)
    if jobs <= 1:
        return [run_single(cfg, i) for i in range(cfg.runs)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(partial(run_single, cfg), range(cfg.runs), chunksize=8))


def summarize(results: list[RunResult], pf_ref: float) -> ReplicationSummary:
    """Reduce a batch of runs to its benchmark statistics.

    Runs that failed or returned a zero estimate are excluded from the
    mean, CoV and R (their logarithm is undefined) and counted in
    ``failed_runs`` and ``zero_runs``; the evaluation cost is averaged
    over all runs.
    """
    if not results:
        raise ConfigurationError("no runs to summarize")
    if pf_ref <= 0.0:
        raise ConfigurationError("reference probability must be positive")
    failed = sum(r.status == "failed" for r in results)
    used = [r for r in results if r.status != "failed" and r.pf_hat > 0.0]
    if not used:
        raise ConfigurationError("all runs failed or returned zero estimates")
    est = np.array([r.pf_hat for r in used])
    mean_pf = float(est.mean())
    cov = float(est.std(ddof=1) / mean_pf) if est.size > 1 else 0.0
    r_metric = float(np.sqrt(np.mean(np.log10(est / pf_ref) ** 2)))
    mean_evals = float(np.mean([r.n_evals for r in results]))
    pi = np.array([[o.pi_hat for o in r.bin_outcomes] for r in used])
    return ReplicationSummary(
        mean_pf=mean_pf,
        cov=cov,
        r_metric=r_metric,
        mean_evals=mean_evals,
        runs_used=len(used),
        failed_runs=failed,
        zero_runs=len(results) - failed - len(used),
        bin_mean_pi=tuple(float(x) for x in pi.mean(axis=0)),
        pf_ref=pf_ref,
    )


def reference_probability(
    problem: str,
    samples: int | None = None,
    stream: RandomStream | None = None,
) -> float:
    """Reference failure probability of a built-in benchmark.

    Returns the pinned value by default; with ``samples`` given,
    recomputes it by brute-force Monte Carlo instead.
    """
    if samples is not None:
        ls = get_problem(problem)
        return run_mcs(ls, samples, stream or RandomStream(0)).pf_hat
    try:
        return REFERENCE_PF[problem]
    except KeyError:
        known = ", ".join(sorted(REFERENCE_PF))
        raise ConfigurationError(
            f"no stored reference for {problem!r} (known: {known})"
        ) from None


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-dict form of a config (tuples become lists), for JSON output."""
    out = asdict(cfg)
    if out["cuts"] is not None:
        out["cuts"] = list(out["cuts"])
    return out


def binomial_standard_error(pf: float, n: int) -> float:
    """Standard error of a Monte Carlo proportion estimate."""
    return math.sqrt(max(pf * (1.0 - pf), 0.0) / n)
