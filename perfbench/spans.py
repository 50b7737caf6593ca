"""Traced runs: spans around the calls into each dirss layer, recorded from outside.

The tracer replaces, for the length of a ``with tracer.installed():``
block, the names that callers look up (``dirss.estimators.propagate_chains``,
``dirss.harness.run_single``, the ``RandomStream`` draw methods, ...) with
wrappers that record a span each: name, start, end, parent span, run id
and a count (points, normals or levels). Spans stay in memory; the
caller aggregates them into per-layer metrics and may write them out.

A span's self time is its duration minus that of its direct children.
Bookkeeping the tracer does after a call, such as counting accepted
moves in the chains ``propagate_chains`` returned, is recorded as a
``trace`` span so that it is not charged to the layer that made the call.
"""

from __future__ import annotations

import csv
import dataclasses
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import dirss.cli
import dirss.estimators
import dirss.harness
from dirss.gaussian import RandomStream
from dirss.partition import Partition

_now = time.perf_counter_ns

# span fields: name, start_ns, end_ns, parent index (-1 at the top), run id, count
NAME, START, END, PARENT, RUN, COUNT = range(6)


def _rows(args, out):
    return args[0].shape[0]


def _size(args, out):
    return out.size


def _levels(args, out):
    return out.levels


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run = -1
        self.proposals = 0
        self.accepts = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None, run_arg=None):
        """``fn`` recording one span per call; ``count(args, result)`` fills its count."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if run_arg is not None:
                self.run = args[run_arg]
            idx = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.run, 0]
            spans.append(rec)
            stack.append(idx)
            rec[START] = _now()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = _now()
                stack.pop()
                if run_arg is not None:
                    self.run = -1
            if count is not None:
                rec[COUNT] = count(args, out)
            return out

        return traced

    def _propagate(self, fn):
        traced = self.wrap("kernels.propagate", fn)

        def propagate(*args, **kwargs):
            out = traced(*args, **kwargs)
            start = _now()
            self._count_moves(np.asarray(args[3]), out[0])
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(["trace", start, _now(), parent, self.run, 0])
            return out

        return propagate

    def _count_moves(self, offspring, points):
        """Proposals and accepted moves, read off the contiguously stored chains."""
        kept = offspring[offspring > 0]
        self.proposals += int(kept.sum() - kept.size)
        moved = np.any(points[1:] != points[:-1], axis=1)
        moved[np.cumsum(kept)[:-1] - 1] = False  # a chain's first state is its seed
        self.accepts += int(moved.sum())

    def _get_problem(self, fn):
        def get_problem(name):
            ls = fn(name)
            g = self.wrap("limitstate.g", ls.evaluator, count=_rows)
            return dataclasses.replace(ls, evaluator=g)

        return get_problem

    @contextmanager
    def installed(self):
        """Patch the layer boundaries for the length of the block."""
        est, har, cli = dirss.estimators, dirss.harness, dirss.cli
        patches = [
            (cli, "main", self.wrap("cli.main", cli.main)),
            (cli, "replicate", self.wrap("harness.replicate", cli.replicate)),
            (cli, "summarize", self.wrap("harness.summarize", cli.summarize)),
            (cli, "write_runs_csv", self.wrap("cli.write", cli.write_runs_csv)),
            (har, "replicate", self.wrap("harness.replicate", har.replicate)),
            (har, "summarize", self.wrap("harness.summarize", har.summarize)),
            (har, "run_single", self.wrap("harness.run_single", har.run_single, run_arg=1)),
            (har, "get_problem", self._get_problem(har.get_problem)),
            (har, "run_ss", self.wrap("estimators.run", har.run_ss, count=_levels)),
            (har, "run_dss", self.wrap("estimators.run", har.run_dss, count=_levels)),
            (est, "propagate_chains", self._propagate(est.propagate_chains)),
            (est, "residual_resample", self.wrap("kernels.resample", est.residual_resample)),
            (est, "interp_quantile", self.wrap("kernels.quantile", est.interp_quantile)),
            (RandomStream, "standard_normal",
             self.wrap("gaussian.normal", RandomStream.standard_normal, count=_size)),
            (RandomStream, "multinomial",
             self.wrap("gaussian.multinomial", RandomStream.multinomial)),
            (Partition, "classify", self.wrap("partition.classify", Partition.classify)),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, fn in patches:
                setattr(owner, attr, fn)
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def totals(self) -> dict:
        """Per span name: total ns, self ns, calls and summed counts.

        Two extra keys hold work done inside ``propagate_chains``: the
        lockstep rounds (one normal draw each) and the points given to g.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        out: dict[str, list] = {}
        rounds = g_points = 0
        for s, kids in zip(spans, child_ns):
            dur = s[END] - s[START]
            acc = out.setdefault(s[NAME], [0, 0, 0, 0])
            acc[0] += dur
            acc[1] += dur - kids
            acc[2] += 1
            acc[3] += s[COUNT]
            if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "kernels.propagate":
                if s[NAME] == "gaussian.normal":
                    rounds += 1
                elif s[NAME] == "limitstate.g":
                    g_points += s[COUNT]
        out["propagate.rounds"] = [0, 0, rounds, 0]
        out["propagate.g_points"] = [0, 0, 0, g_points]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start_ns", "end_ns", "parent", "run", "count"])
            writer.writerows(self.spans)


# Layer metrics that are self times. Their sum can never exceed the wall
# time of the traced batch; the bench self-test checks that.
SELF_TIME_METRICS = (
    "cli.self_s",
    "harness.self_s",
    "harness.summarize_s",
    "estimators.self_s",
    "kernels.propagate_self_s",
    "kernels.quantile_s",
    "kernels.resample_s",
    "gaussian.draw_s",
    "partition.classify_s",
    "limitstate.g_s",
)


def layer_metrics(
    totals: dict, proposals: int, accepts: int, runs: int, traced_s: float, plain_s: float
) -> dict:
    """Per-layer metrics of traced batches of ``runs`` runs in all.

    Times and counts are per run; ``traced_s`` and ``plain_s`` are the
    wall times of the same batches with tracing on and off.
    """
    def get(name):
        return totals.get(name, [0, 0, 0, 0])

    def self_s(*names):
        return sum(get(n)[1] for n in names) / 1e9 / runs

    g = get("limitstate.g")
    levels = get("estimators.run")[3]
    return {
        "kernels.propagate_s": (get("kernels.propagate")[0] / 1e9 / runs, "s"),
        "kernels.propagate_self_s": (self_s("kernels.propagate"), "s"),
        "kernels.rounds": (get("propagate.rounds")[2] / runs, "count"),
        "kernels.proposals": (proposals / runs, "count"),
        "kernels.free_rejects": ((proposals - get("propagate.g_points")[3]) / runs, "count"),
        "kernels.accept_rate": (accepts / proposals if proposals else 0.0, "ratio"),
        "kernels.quantile_calls": (get("kernels.quantile")[2] / runs, "count"),
        "kernels.quantile_s": (self_s("kernels.quantile"), "s"),
        "kernels.resample_s": (self_s("kernels.resample"), "s"),
        "estimators.self_s": (self_s("estimators.run"), "s"),
        "estimators.level_ms": (get("estimators.run")[0] / 1e6 / max(levels, 1), "ms"),
        "estimators.levels": (levels / runs, "count"),
        "limitstate.g_calls": (g[2] / runs, "count"),
        "limitstate.g_points": (g[3] / runs, "count"),
        "limitstate.g_s": (self_s("limitstate.g"), "s"),
        "limitstate.batch_mean": (g[3] / g[2] if g[2] else 0.0, "count"),
        "gaussian.draw_calls": (
            (get("gaussian.normal")[2] + get("gaussian.multinomial")[2]) / runs, "count"
        ),
        "gaussian.normals": (get("gaussian.normal")[3] / runs, "count"),
        "gaussian.draw_s": (self_s("gaussian.normal", "gaussian.multinomial"), "s"),
        "partition.classify_calls": (get("partition.classify")[2] / runs, "count"),
        "partition.classify_s": (self_s("partition.classify"), "s"),
        "harness.self_s": (self_s("harness.replicate", "harness.run_single"), "s"),
        "harness.summarize_s": (self_s("harness.summarize"), "s"),
        "cli.self_s": (self_s("cli.main", "cli.write"), "s"),
        "trace.wall_s": (traced_s / runs, "s"),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "ratio"),
    }
