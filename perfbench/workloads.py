"""The benchmark's workloads, the problems they run and their correctness gates.

Each workload stresses one layer of ``dirss``:

- ``pwl_dss_cli``: many short dSS runs on ``piecewise_linear`` through
  ``dirss.cli.main(["replicate", ...])``. g is cheap, so the time goes to
  Python overhead in ``propagate_chains``; the CLI, config load and CSV
  writes are exercised here and nowhere else.
- ``orthants_d10``: dSS with J=1024 orthant bins on ``make_linear(3.5, 10)``.
  The per-bin threshold loop in ``run_dss`` is O(J*n) and dominates.
- ``beta_ss_slowg``: SS on ``beta_points`` with a g that computes as long
  as a slow simulator, so time follows the number and size of g-calls.
  It is also the only workload on the single-bin SS branch.

A workload is a fixed list of chunks. A chunk is one batch (one
``replicate`` call, or one CLI invocation) whose seed is derived from the
bench seed and the chunk index, so the counts and the accuracy of one
pass over the chunks depend only on the bench seed. Every chunk writes
``runs.csv`` through the package's own writer; the bench reads it back,
hashes it and checks the estimate.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import dirss
import dirss.cli
import dirss.harness
import speed
from dirss import ExperimentConfig, LimitState

PHI_MINUS_3_5 = 0.5 * math.erfc(3.5 / math.sqrt(2.0))
CASE1_CUTS = (-math.pi + 0.8, 0.8)

# The modelled expensive g: a fixed cost per call plus a cost per point,
# about 1 ms and 5 us at the reference speed. It burns the calibration
# kernel's work rather than sleeping: sleeps woke up late by up to 0.5 ms
# a call on a loaded host, and computed cost scales with host speed like
# the rest of the run, which the calibration then takes out.
SLOW_G_CALL_UNITS = 150
SLOW_G_POINT_UNITS = 0.75


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``config.runs`` is the size of one chunk and ``chunks`` the number
    of chunks in one timed pass; ``tiny_runs`` replaces the chunk size,
    and one chunk the pass, in the bench self-test. The pooled
    ``mean_pf`` must lie in ``[pf_lo, pf_hi]``; ``pf_ref`` is the
    reference for R and CoV.

    A workload whose g is slow only by the bench's extra work can name
    the same g without it as ``fast_problem``: its counts and accuracy
    are then pooled over ``accuracy_chunks`` untimed chunks run with that
    g, the first of which must reproduce the timed chunks byte for byte.
    """

    name: str
    config: ExperimentConfig
    chunks: int
    pf_ref: float
    pf_lo: float
    pf_hi: float
    via_cli: bool
    tiny_runs: int
    fast_problem: str | None = None
    accuracy_chunks: int = 0

    def shrunk(self) -> "Workload":
        return dataclasses.replace(
            self,
            config=dataclasses.replace(self.config, runs=self.tiny_runs),
            chunks=1,
            accuracy_chunks=min(self.accuracy_chunks, 1),
        )


WORKLOADS = {
    w.name: w
    for w in (
        # 18 chunks of 100 runs: CoV is heavy-tailed here and still moved
        # by 11% (IQR over seeds) when pooled over 900 runs; a chunk takes
        # about 0.75 s, so some 40 fit in a run for the timing medians.
        Workload(
            "pwl_dss_cli",
            ExperimentConfig(
                "piecewise_linear", "dss", 500,
                partition="angular", cuts=CASE1_CUTS, runs=100,
            ),
            chunks=18,
            pf_ref=dirss.REFERENCE_PF["piecewise_linear"],
            # acceptance criterion 2's interval for dSS with the case-1 cuts
            pf_lo=2.5e-5,
            pf_hi=5.5e-5,
            via_cli=True,
            tiny_runs=20,
        ),
        # n=20000 keeps about 20 particles in each of the 1024 bins. At
        # n=4000 (about 4 a bin) validate_config warns, a third of the
        # runs hit max_levels and per-run time is far from steady.
        # Runs cost about 0.28 s, so a pass is 100 runs in 20 chunks.
        Workload(
            "orthants_d10",
            ExperimentConfig(
                "bench_linear_d10", "dss", 20000, partition="orthants", runs=5,
            ),
            chunks=20,
            pf_ref=PHI_MINUS_3_5,
            pf_lo=PHI_MINUS_3_5 / 1.5,
            pf_hi=PHI_MINUS_3_5 * 1.5,
            via_cli=False,
            tiny_runs=2,
        ),
        # The slow g makes a run cost about 0.1 s, so the timed pass holds
        # 150 runs; CoV and R over so few runs would move by 10-20% from
        # seed to seed, hence the 1000-run accuracy pool with the plain g.
        Workload(
            "beta_ss_slowg",
            ExperimentConfig("bench_beta_slowg", "ss", 1000, runs=25),
            chunks=6,
            pf_ref=dirss.REFERENCE_PF["beta_points"],
            pf_lo=dirss.REFERENCE_PF["beta_points"] / 1.5,
            pf_hi=dirss.REFERENCE_PF["beta_points"] * 1.5,
            via_cli=False,
            tiny_runs=4,
            fast_problem="bench_beta",
            accuracy_chunks=40,
        ),
    )
}


class GCounter:
    """Calls into, and points through, the problems' evaluators."""

    def __init__(self):
        self.calls = 0
        self.points = 0

    def wrap(self, evaluator):
        def counted(pts):
            self.calls += 1
            self.points += pts.shape[0]
            return evaluator(pts)

        return counted


def _slow(evaluator):
    def slow_g(pts):
        speed.work(int(SLOW_G_CALL_UNITS + SLOW_G_POINT_UNITS * pts.shape[0]))
        return evaluator(pts)

    return slow_g


def _beta_slowg() -> LimitState:
    beta = dirss.make_beta_points()
    return LimitState("bench_beta_slowg", 2, _slow(beta.evaluator))


def _beta() -> LimitState:
    return dataclasses.replace(dirss.make_beta_points(), name="bench_beta")


def _counted(make, counter: GCounter) -> LimitState:
    ls = make()
    return dataclasses.replace(ls, evaluator=counter.wrap(ls.evaluator))


def register_problems(counter: GCounter) -> None:
    """Register every problem the workloads use, with g counted by ``counter``.

    ``piecewise_linear`` is re-registered under its own name, so the CLI
    workload runs exactly the configuration a user would write.
    """
    makers = {
        "piecewise_linear": dirss.make_piecewise_linear,
        "bench_linear_d10": partial(dirss.make_linear, 3.5, 10, "bench_linear_d10"),
        "bench_beta_slowg": _beta_slowg,
        "bench_beta": _beta,
    }
    for name, make in makers.items():
        dirss.register_problem(name, partial(_counted, make, counter))


def setup(w: Workload, out: Path, counter: GCounter) -> ExperimentConfig:
    """Everything a run needs before it starts: problems, config, validation.

    The CLI workload loads its config from the JSON file the CLI reads.
    """
    register_problems(counter)
    cfg = w.config
    if w.via_cli:
        cfg = dirss.cli.load_config(str(config_path(out)))
    ls = dirss.harness.build_problem(cfg)
    dirss.harness.build_partition(cfg, ls.dimension)
    dirss.validate_config(cfg)
    return cfg


def config_path(out: Path) -> Path:
    return out / "config.json"


def write_config(w: Workload, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    config_path(out).write_text(json.dumps(dirss.harness.config_to_dict(w.config)))


def chunk_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


@dataclass
class Chunk:
    """What one chunk did: its wall time (raw and at the reference speed,
    see ``speed.py``), its runs and the g work."""

    index: int
    wall_s: float
    ref_s: float
    rows: list
    g_calls: int
    g_points: int
    digest: str

    @property
    def evals(self) -> int:
        return sum(r.n_evals for r in self.rows)


def run_chunk(
    w: Workload, cfg: ExperimentConfig, seed: int, index: int, out: Path, counter: GCounter
) -> Chunk:
    """Run chunk ``index`` once and read back the ``runs.csv`` it wrote.

    The timed region is what a user pays for one batch: replicate,
    summarize and the runs.csv write (plus summary.json and hist.csv
    through the CLI).
    """
    cfg = dataclasses.replace(cfg, seed=chunk_seed(seed, index))
    out = out / f"chunk{index}"
    out.mkdir(parents=True, exist_ok=True)
    calls, points = counter.calls, counter.points
    before = speed.kernel_s()
    start = time.perf_counter()
    if w.via_cli:
        with contextlib.redirect_stdout(io.StringIO()):
            code = dirss.cli.main([
                "replicate", "--config", str(config_path(out.parent)),
                "--runs", str(cfg.runs), "--seed", str(cfg.seed), "--out", str(out),
            ])
        if code != 0:
            raise RuntimeError(f"dirss replicate exited with code {code}")
    else:
        results = dirss.harness.replicate(cfg)
        dirss.harness.summarize(results, w.pf_ref)
        dirss.cli.write_runs_csv(out / "runs.csv", results)
    wall = time.perf_counter() - start
    after = speed.kernel_s()
    data = (out / "runs.csv").read_bytes()
    return Chunk(
        index=index,
        wall_s=wall,
        ref_s=speed.at_reference(wall, before, after),
        rows=_parse_runs_csv(data.decode()),
        g_calls=counter.calls - calls,
        g_points=counter.points - points,
        digest=hashlib.sha256(data).hexdigest(),
    )


def _parse_runs_csv(text: str) -> list:
    """Rows of runs.csv in the shape ``dirss.summarize`` reads from a RunResult."""
    records = list(csv.reader(text.splitlines()))[1:]  # run_id, pf_hat, levels, n_evals, ...
    return [
        SimpleNamespace(
            pf_hat=float(rec[1]),
            n_evals=int(rec[3]),
            status=rec[4],
            bin_outcomes=[SimpleNamespace(pi_hat=float(x)) for x in rec[5:]],
        )
        for rec in records
    ]


def pass_digest(chunks: list[Chunk]) -> str:
    """One sha256 over the runs.csv digests of a pass, in chunk order."""
    return hashlib.sha256("".join(c.digest for c in chunks).encode()).hexdigest()


def gate(w: Workload, chunks: list[Chunk]) -> tuple[dict, list[str]]:
    """Pooled statistics of a pass and the list of failed correctness checks."""
    rows = [r for c in chunks for r in c.rows]
    summary = dirss.summarize(rows, w.pf_ref)
    problems = []
    if not w.pf_lo <= summary.mean_pf <= w.pf_hi:
        problems.append(
            f"mean_pf {summary.mean_pf:.4e} outside [{w.pf_lo:.4e}, {w.pf_hi:.4e}]"
        )
    for c in chunks:
        if len(c.rows) != w.config.runs:
            problems.append(
                f"chunk {c.index}: runs.csv holds {len(c.rows)} runs, expected {w.config.runs}"
            )
        if c.g_points != c.evals:
            problems.append(
                f"chunk {c.index}: g saw {c.g_points} points but runs report {c.evals} evals"
            )
    stats = {
        "runs": len(rows),
        "failed": sum(r.status == "failed" for r in rows),
        "mean_pf": summary.mean_pf,
        "cov": summary.cov,
        "r_metric": summary.r_metric,
        "evals": sum(c.evals for c in chunks),
        "g_calls": sum(c.g_calls for c in chunks),
    }
    return stats, problems
