#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

For every workload it runs ``run.py --tiny`` twice untraced and once
traced, each in a fresh process, and checks that:

1. counts (evals, g-calls, R, CoV) and the runs.csv bytes repeat exactly
   across the two untraced invocations;
2. turning tracing on leaves the counts unchanged: g-calls and g-points
   per run equal the untraced gcalls_per_run and evals_per_run, and the
   traced run found its runs.csv bytes equal to the untraced ones;
3. the traced self times sum to no more than the traced wall time.

The accuracy interval is not judged: a tiny batch is too small for it.
Exits with code 1 and names each failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import WORKLOAD_NAMES  # noqa: E402
from spans import SELF_TIME_METRICS  # noqa: E402

COUNTS = ("evals_per_run", "gcalls_per_run", "r_metric", "cov", "ok_frac")
SEED = 3


def invoke(workload: str, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    digest = next((ln.split()[2] for ln in lines if ln.split()[1:2] == ["runs_sha256"]), None)
    failed = [ln.split("FAILED CHECK: ", 1)[1] for ln in lines if "FAILED CHECK: " in ln]
    return values, digest, [f for f in failed if not f.startswith("mean_pf ")]


def check(workload: str) -> list[str]:
    first, digest1, failed1 = invoke(workload, 0)
    second, digest2, failed2 = invoke(workload, 0)
    traced, _, failed3 = invoke(workload, 1)
    problems = failed1 + failed2 + failed3
    for key in COUNTS:
        if first[key] != second[key]:
            problems.append(f"{key} differs across invocations: {first[key]} vs {second[key]}")
    if digest1 is None or digest1 != digest2:
        problems.append(f"runs.csv bytes differ across invocations: {digest1} vs {digest2}")
    for layer, plain in (("limitstate.g_calls", "gcalls_per_run"),
                         ("limitstate.g_points", "evals_per_run")):
        if traced[layer] != first[plain]:
            problems.append(f"tracing moved {plain}: {first[plain]} vs {layer} {traced[layer]}")
    self_sum = sum(traced[m] for m in SELF_TIME_METRICS)
    if self_sum > traced["trace.wall_s"]:
        problems.append(f"self times sum to {self_sum:.6g} s > traced wall {traced['trace.wall_s']:.6g} s")
    return problems


def main() -> int:
    bad = 0
    for workload in WORKLOAD_NAMES:
        problems = check(workload)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
        bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
