"""The host's speed, read from a fixed reference loop timed between items.

The benchmark runs on a few vCPUs of a shared host whose speed for
interpreted Python shifts by 20-80% between states that each last minutes,
so a whole run can fall inside one slow spell.  CPU time grows with wall
time in a slow spell (it is not descheduling), and neither per-item medians
nor longer runs remove it.  The runner therefore times a fixed pure-Python
loop, which uses no leflab code, every CHECK_EVERY_S seconds between items,
and divides each item's time by the slowdown measured within WINDOW_S of it.
Reported times read as wall times on a host where the loop takes
REFERENCE_MS; the raw wall times stay in the run record.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

REFERENCE_MS = 1.0
CHECK_EVERY_S = 0.1
SAMPLES = 3  # reference loops per check
WINDOW_S = 0.5  # an item is scaled by the checks within this of its span


def reference_loop() -> int:
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    return acc


class Gauge:
    """Timed reference loops, each with the moment it ended."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.ms: list[float] = []

    def check(self, samples: int = SAMPLES) -> None:
        for _ in range(samples):
            t0 = perf_counter()
            reference_loop()
            t1 = perf_counter()
            self.times.append(t1)
            self.ms.append(1000 * (t1 - t0))

    def slowdown(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """How many times slower than at REFERENCE_MS the host ran around [start, end]."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        return statistics.median(self.ms[lo:hi]) / REFERENCE_MS
