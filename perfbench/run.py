#!/usr/bin/env python3
"""Benchmark of the dirss package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

The package is imported from ``src/`` beside this directory, never from
an installed copy; without that tree the bench exits with code 2.

With ``--trace 0`` the bench runs the workload's chunks (see
``workloads.py``) once, then repeats them until ``--seconds`` have
passed, and reports the end-to-end metrics. Timings are medians over
chunks, scaled to a reference host speed (see ``speed.py``). Counts and
accuracy come from the first pass (or a larger untimed pool, see
``Workload``), and every repeat must reproduce the first pass's
``runs.csv`` bytes. With ``--trace 1`` each chunk runs twice, untraced
and then traced, and the bench reports the per-layer metrics from the
traced copies (see ``spans.py``), in raw wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Results and the
spans of the first traced chunk are also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("pwl_dss_cli", "orthants_d10", "beta_ss_slowg")
SETUP_PROBES = 11
MAX_SEED = 2**50


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one small chunk per workload and one set-up probe (self-test)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < MAX_SEED:
        parser.error(f"--seed must lie in [0, {MAX_SEED})")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dirss" / "__init__.py").is_file():
        print(f"error: the dirss source tree {SRC / 'dirss'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import workloads

    w = workloads.WORKLOADS[args.workload]
    if args.tiny:
        w = w.shrunk()
    out = OUT / w.name / f"seed{args.seed}"
    workloads.write_config(w, out)
    if args.trace:
        counter = workloads.GCounter()
        cfg = workloads.setup(w, out, counter)
        result, notes, details = run_traced(workloads, w, cfg, args.seed, args.seconds, out,
                                            counter)
    else:
        setup_raw_s, setup_s = measure_setup(w, out, 1 if args.tiny else SETUP_PROBES)
        counter = workloads.GCounter()
        cfg = workloads.setup(w, out, counter)
        result, notes, details = run_plain(workloads, w, cfg, args.seed, args.seconds, out,
                                           counter, setup_s)
        details["setup_raw_s"] = setup_raw_s

    for name, metric in result["metrics"].items():
        print(f"{w.name:14s} {name:26s} {metric['value']:>14.6g} {metric['unit']}")
    for note in notes:
        print(f"{w.name:14s} {note}")
    (out / f"result-trace{args.trace}.json").write_text(
        json.dumps({"workload": w.name, "seed": args.seed, "notes": notes, **result,
                    **details}, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


def measure_setup(w, out: Path, probes: int) -> tuple[float, float]:
    """Median set-up time, raw and at the reference speed, over fresh
    interpreters after one untimed warm-up (see ``setup_probe.py``)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), w.name, str(out)]
    raw, ref = [], []
    for i in range(probes + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        if i:
            raw_s, ref_s = map(float, proc.stdout.split())
            raw.append(raw_s)
            ref.append(ref_s)
    return statistics.median(raw), statistics.median(ref)


def _metrics(pairs: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in pairs.items()}


def run_plain(workloads, w, cfg, seed, seconds, out, counter, setup_s):
    """End-to-end metrics: a first pass over the chunks, then repeats until time is up."""
    deadline = time.perf_counter() + seconds
    first, problems = [], []
    per_run_ms, per_eval_us, raw_ms = [], [], []
    attempted = failed = 0
    k = 0
    while True:
        c = workloads.run_chunk(w, cfg, seed, k % w.chunks, out, counter)
        if k < w.chunks:
            first.append(c)
        elif c.digest != first[c.index].digest:
            problems.append(f"chunk {c.index}: a repeat changed the runs.csv bytes")
        per_run_ms.append(1e3 * c.ref_s / len(c.rows))
        per_eval_us.append(1e6 * c.ref_s / c.evals)
        raw_ms.append(1e3 * c.wall_s / len(c.rows))
        attempted += len(c.rows)
        failed += sum(r.status == "failed" for r in c.rows)
        k += 1
        if k >= w.chunks and time.perf_counter() + c.wall_s > deadline:
            break
    pool = first
    if w.fast_problem:
        fast = dataclasses.replace(cfg, problem=w.fast_problem)
        pool = [workloads.run_chunk(w, fast, seed, i, out / "accuracy", counter)
                for i in range(w.accuracy_chunks)]
        problems += [f"chunk {c.index}: g without its extra work changed the runs.csv bytes"
                     for c in first if c.digest != pool[c.index].digest]
        attempted += sum(len(c.rows) for c in pool)
        failed += sum(r.status == "failed" for c in pool for r in c.rows)
    stats, gate_problems = workloads.gate(w, pool)
    problems += gate_problems
    runs = stats["runs"]
    metrics = {
        "ms_per_run": (statistics.median(per_run_ms), "ms"),
        "us_per_eval": (statistics.median(per_eval_us), "us"),
        "evals_per_run": (stats["evals"] / runs, "count"),
        "gcalls_per_run": (stats["g_calls"] / runs, "count"),
        "r_metric": (stats["r_metric"], "log10"),
        "cov": (stats["cov"], "ratio"),
        "ok_frac": (1.0 - stats["failed"] / runs, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    digest = workloads.pass_digest(pool)
    notes = [
        f"chunks timed: {k} ({w.chunks} per pass, {w.config.runs} runs each); "
        f"counts and accuracy over {runs} runs",
        f"raw wall ms_per_run {statistics.median(raw_ms):.6g} "
        f"(the metrics are at the reference speed, see speed.py)",
        f"mean_pf {stats['mean_pf']:.4e} (reference {w.pf_ref:.4e})",
        f"runs_sha256 {digest} {baseline_note(w, workloads, seed, digest)}",
    ] + [f"FAILED CHECK: {p}" for p in problems]
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": _metrics(metrics)}
    return result, notes, {"chunk_ms_per_run": per_run_ms, "chunk_raw_ms_per_run": raw_ms}


def baseline_note(w, workloads, seed: int, digest: str) -> str:
    """Whether a pass's runs.csv bytes match those recorded in baseline.json."""
    if w != workloads.WORKLOADS[w.name]:
        return "(no baseline for a --tiny pass)"
    recorded = json.loads((HERE / "baseline.json").read_text())["runs_sha256"]
    known = recorded.get(w.name, {}).get(str(seed))
    if known is None:
        return "(no baseline for this seed)"
    return "(matches baseline)" if known == digest else "(differs from baseline)"


def run_traced(workloads, w, cfg, seed, seconds, out, counter):
    """Per-layer metrics: each chunk untraced, then traced, until time is up."""
    import spans

    deadline = time.perf_counter() + seconds
    totals: dict[str, list] = {}
    proposals = accepts = runs = attempted = failed = 0
    traced_s = plain_s = 0.0
    traced_chunks, problems = [], []
    k = 0
    while True:
        index = k % w.chunks
        plain = workloads.run_chunk(w, cfg, seed, index, out, counter)
        tracer = spans.Tracer()
        with tracer.installed():
            traced = workloads.run_chunk(w, cfg, seed, index, out, counter)
        if traced.digest != plain.digest:
            problems.append(f"chunk {index}: tracing changed the runs.csv bytes")
        if k == 0:
            tracer.write(out / "spans.csv")
        for name, acc in tracer.totals().items():
            totals[name] = [a + b for a, b in zip(totals.get(name, [0, 0, 0, 0]), acc)]
        proposals += tracer.proposals
        accepts += tracer.accepts
        runs += len(traced.rows)
        traced_s += traced.wall_s
        plain_s += plain.wall_s
        attempted += len(plain.rows) + len(traced.rows)
        failed += sum(r.status == "failed" for r in plain.rows + traced.rows)
        if k < w.chunks:
            traced_chunks.append(traced)
        k += 1
        if time.perf_counter() + plain.wall_s + traced.wall_s > deadline:
            break
    problems += workloads.gate(w, traced_chunks)[1]
    metrics = spans.layer_metrics(totals, proposals, accepts, runs, traced_s, plain_s)
    wall = metrics["trace.wall_s"][0]
    shares = {
        "kernels.propagate": metrics["kernels.propagate_s"][0] / wall,
        "estimators.self+kernels.quantile":
            (metrics["estimators.self_s"][0] + metrics["kernels.quantile_s"][0]) / wall,
        "limitstate.g": metrics["limitstate.g_s"][0] / wall,
    }
    notes = [
        f"chunk pairs: {k} ({runs} traced runs); spans of the first in {out / 'spans.csv'}",
        "share of traced wall time: "
        + ", ".join(f"{name} {share:.0%}" for name, share in shares.items()),
    ] + [f"FAILED CHECK: {p}" for p in problems]
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": _metrics(metrics)}
    return result, notes, {"wall_shares": shares}


def run_all(args) -> int:
    """Every workload in its own process, one table, one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            print(f"error: workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
