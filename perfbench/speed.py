"""Host-speed calibration, so that timings taken at different times compare.

On the shared 2-core host where this bench was written, the CPU speed
available to one process drifts by up to 1.5x over minutes: the same
pwl_dss_cli chunk took a median 93 ms for half a minute and 137 ms for
the next, while its ratio to a fixed calibration kernel timed around it
moved by 1%. Timings are therefore reported at a reference speed:
``wall * REF_KERNEL_S / kernel``, where ``kernel`` is the mean time of
one kernel run just before and one just after the timed call. Raw wall
times are kept in the result file. Set-up time is scaled by a
pure-Python loop instead (see ``setup_probe.py``): import time did not
follow this kernel.

The kernel is the kind of work the benchmark's cheap-g workloads do:
interpreter overhead around numpy calls on small arrays. The modelled
slow g burns the same work, so its cost scales with host speed too.
"""

from __future__ import annotations

import time

import numpy as np

# kernel time at the reference speed: the kernel's usual time on that host
REF_KERNEL_S = 0.020
KERNEL_UNITS = 3000

_X = np.linspace(-1.0, 1.0, 128).reshape(64, 2)


def work(units: int) -> float:
    """``units`` rounds of small numpy calls, about 6.7 us each at the reference speed."""
    total = 0.0
    for _ in range(units):
        y = 0.8 * _X + 0.6 * _X
        total += float(np.count_nonzero(y[:, 0] > 0.0))
    return total


def kernel_s() -> float:
    start = time.perf_counter()
    work(KERNEL_UNITS)
    return time.perf_counter() - start


def at_reference(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` scaled to the reference speed by the kernel times around it."""
    return wall_s * REF_KERNEL_S / ((before_s + after_s) / 2.0)
