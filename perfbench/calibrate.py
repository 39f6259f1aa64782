"""Machine-speed index for the benchmark's timings.

The host this benchmark was built on shares its cores with other tenants:
the same pure-Python code runs up to 1.7x slower for seconds to minutes at a
time.  Every timed piece of work is therefore bracketed by runs of a fixed
stdlib-only kernel, and its wall time is scaled by ``REFERENCE_S`` over the
kernel's time around it: the result reads as seconds on a host where the
kernel takes ``REFERENCE_S``.  The kernel uses no tcdo code, so a change to
tcdo cannot move it.  Raw wall times are reported next to the scaled ones.
"""

import statistics
import time

REFERENCE_S = 0.010


def kernel() -> int:
    total = 0
    table = {}
    for i in range(60000):
        total += i * i % 7
        table[i % 1000] = total
    return total


def speed_sample() -> float:
    """Median wall time of five kernel runs."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor turning a wall time measured between two speed samples into
    reference seconds."""
    return REFERENCE_S / ((before + after) / 2)
