"""Machine-speed gauge that end-to-end timings are scaled by.

The 2-vCPU Xeon virtual machine this benchmark was built on, shared
with other tenants, drifts in speed by a factor of up to 1.7 over
minutes and by 10-20% between 25-second windows; a fixed pure-Python
loop slows down with it.  Timing that loop before every operation and
scaling interpreted workloads' times by ``REFERENCE_S / median(loop
time)`` cancels most of the drift (see README.md for the measured
spreads).  The loop touches no program code, so a change to the program
moves scaled times exactly as it moves raw ones.  Raw values and every
reading are kept in the run record.
"""

from __future__ import annotations

import statistics
import time

LOOP_ITERATIONS = 200_000
REFERENCE_S = 0.015  # loop time that defines the reference speed


def loop_seconds() -> float:
    """Wall time of one fixed pure-Python integer loop."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def scale(readings: list[float]) -> float:
    """Factor that turns raw seconds into seconds at the reference speed."""
    return REFERENCE_S / statistics.median(readings)
