"""Machine-speed reference for the end-to-end timings.

The host this benchmark was built on changes speed by tens of percent
over seconds (other tenants share its cores), which moved the raw item
rate of one workload by 20-40 % between runs of identical work.  A fixed
pure-Python loop, timed between items, measures the current speed, and
the end-to-end times are scaled to the speed at which that loop takes
REF_SECONDS.  The loop runs no package code, so a change to the package
moves the scaled times in full; the raw times are kept in the results.
"""

from __future__ import annotations

from time import perf_counter

REF_SECONDS = 0.007  # the loop's time on the unloaded baseline machine
EVERY_S = 0.5  # wall time between two timings of the loop during a pass


def reference_loop() -> float:
    """Seconds the fixed reference loop takes right now."""
    began = perf_counter()
    x = 0
    for i in range(100_000):
        x += i * i
    return perf_counter() - began
