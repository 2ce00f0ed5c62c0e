"""How fast this core runs, sampled while a workload measures.

On a shared host, other tenants slow this process by up to 1.8x, in
spells that switch within a second. The same code's latency in seconds
then spreads wider between runs than a useful regression bound: on a
2-vCPU Xeon VM, ten runs of each workload spread 20-24% between their
quartiles. A yardstick, a fixed pure-Python loop, slows with the
process. :class:`Speedometer` times one every :data:`SAMPLE_PERIOD_S` of
wall-clock time, interrupting whatever runs, so any interval of the run
can be expressed in yardsticks: its duration times the mean speed
(yardsticks per second) sampled inside it. In yardsticks, ten runs of
each workload spread 3-6%.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from time import perf_counter
from typing import Dict, List, Tuple

#: Iterations of the yardstick loop: about a millisecond on a 2.1 GHz
#: Xeon core, short enough to finish before another thread can claim the
#: interpreter lock (its switch interval is 5 ms).
YARDSTICK_LOOPS = 6_000
#: Wall-clock seconds between yardsticks; they take 2-3% of the time.
SAMPLE_PERIOD_S = 0.05


def yardstick_s() -> float:
    """Seconds the yardstick loop takes on this core now."""
    start = perf_counter()
    table: Dict[int, int] = {}
    for index in range(YARDSTICK_LOOPS):
        key = index % 5003
        table[key] = table.get(key, 0) + index
    return perf_counter() - start


class Speedometer:
    """Times a yardstick every :data:`SAMPLE_PERIOD_S` inside a ``with`` block.

    The samples run in a ``SIGALRM`` handler, so on the main thread:
    block the signal in other threads (:func:`main_thread_only`) so that
    it interrupts the main thread even when that thread waits on I/O.
    Nothing else in the process may use ``SIGALRM`` or ``ITIMER_REAL``
    meanwhile.
    """

    def __init__(self) -> None:
        #: Start time and duration of every yardstick, in time order.
        self.at: List[float] = []
        self.took: List[float] = []
        self._previous = None

    def _sample(self, *_: object) -> None:
        start = perf_counter()
        self.took.append(yardstick_s())
        self.at.append(start)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()  # every interval then has a sample at or before it
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *_: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, start: float, end: float) -> Tuple[float, float]:
        """``(seconds, yardsticks)`` of the interval ``[start, end]``.

        Both leave out the yardsticks timed inside the interval. An
        interval too short to hold one is measured against the latest
        yardstick before it.
        """
        low, high = bisect_left(self.at, start), bisect_left(self.at, end)
        inside = self.took[low:high]
        seconds = end - start - sum(inside)
        speeds = [1.0 / took for took in inside or self.took[max(0, low - 1) : low]]
        return seconds, seconds * statistics.fmean(speeds)


def main_thread_only() -> None:
    """Block ``SIGALRM`` in the calling thread (a thread-pool initializer)."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
