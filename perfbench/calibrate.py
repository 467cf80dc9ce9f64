"""Host speed calibration, so that times from different moments compare.

On a shared host the CPU's speed drifts: a fixed pure-Python loop takes
anywhere from 1x to 2x its fastest time, in phases lasting from milliseconds
to minutes, with no steal time to show for it. A time measured in one phase
cannot be compared with one measured in another. The benchmark therefore
runs a fixed reference kernel, about 1 ms long, after every ``INTERVAL_S``
of the work it times, and reports every time at reference speed: a
measured time ``t`` is reported as ``t * REFERENCE_S / kernel time``. A
single kernel run jitters by a few percent on top of the drift, so the
kernel time used is the median of the ``WINDOW`` runs around each point.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.8e-3  # kernel time at reference speed, near this host's fastest
INTERVAL_S = 0.01  # longest stretch of timed work between two kernel runs
WINDOW = 5  # kernel runs whose median stands for the speed at one point


def reference_kernel() -> int:
    """Dict, tuple and sort work, the mix votelab's pure-Python solvers run."""
    table: dict[tuple[int, int], int] = {}
    rows = []
    for i in range(3000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        if i % 7 == 0:
            rows.append(tuple(sorted((i % 5, i % 3, i % 11))))
    return len(table) + len(rows)


def monotonic() -> float:
    """CLOCK_MONOTONIC, which readings from different processes share."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def kernel_time() -> float:
    started = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - started


def speed_factor() -> float:
    """``REFERENCE_S`` over the median of ``WINDOW`` back-to-back kernel runs."""
    return REFERENCE_S / statistics.median(kernel_time() for _ in range(WINDOW))


def smoothed_factors(kernel_times: list[float]) -> list[float]:
    """The speed factor at each kernel run, from the ``WINDOW`` runs around it."""
    half = WINDOW // 2
    return [
        REFERENCE_S / statistics.median(kernel_times[max(0, i - half) : i + half + 1])
        for i in range(len(kernel_times))
    ]
