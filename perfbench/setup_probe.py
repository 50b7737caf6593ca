"""Time a workload's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD OUT_DIR

Set-up is importing dirss, registering the bench's problems, loading or
building the config, building the problem and the partition, and
``validate_config``: everything before the first run. Prints the raw
set-up time and the set-up time at the reference speed, in seconds.
``run.py`` starts this script several times and reports the median of
the second as ``setup_s``.

The host's speed drifts (see ``speed.py``), and the numpy kernel used
there did not follow import time. A pure-Python loop, timed in this
process just before and just after the set-up, follows it better: it
halved the probe-to-probe spread of the set-up time.
"""

import sys
import time

# the loop's usual time at the reference speed
REF_LOOP_S = 0.002


def loop_s() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(20000):
        table[i % 97] = table.get(i % 89, 0) + i
    return time.perf_counter() - start


before = loop_s()
start = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.setup(workloads.WORKLOADS[sys.argv[1]], Path(sys.argv[2]), workloads.GCounter())
setup = time.perf_counter() - start
print(setup, setup * REF_LOOP_S / ((before + loop_s()) / 2.0))
