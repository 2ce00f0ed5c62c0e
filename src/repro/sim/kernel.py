"""The discrete-event simulator: a virtual clock plus an event heap.

The kernel is intentionally small and deterministic:

* events fire in ``(time, seq)`` order, so callbacks scheduled for one
  instant fire in call order whichever entry point scheduled them;
* the clock never moves backwards;
* events are fire-and-forget: scheduling returns nothing and an event,
  once scheduled, fires (only :meth:`Simulator.discard_pending` drops
  events, all at once);
* many events (a frame's receptions) may stand behind one heap entry
  via :meth:`~Simulator.reserve` and :meth:`~Simulator.claim` (or
  :meth:`~Simulator.claim_many`), still firing and counting each at its
  own ``(time, seq)``;
* every run is reproducible because all randomness is drawn from the
  kernel's :class:`~repro.sim.rng.RngRegistry`.

Example
-------
>>> sim = Simulator(seed=7)
>>> fired = []
>>> sim.schedule(2.0, lambda: fired.append(sim.now))
>>> sim.schedule(1.0, lambda: fired.append(sim.now))
>>> sim.run()
>>> fired
[1.0, 2.0]
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.errors import KernelStateError, ScheduleInPastError
from repro.metrics.registry import MetricsRegistry
from repro.sim import telemetry
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog

#: Heap entry: ``(time, seq, callback, args)``. Tuples order entirely in
#: C, and ``seq`` is unique, so a comparison never reaches the callback.
_HeapEntry = Tuple[float, int, Callable[..., Any], Tuple[Any, ...]]


@dataclass
class KernelStats:
    """Bookkeeping counters maintained by the kernel.

    Attributes
    ----------
    scheduled:
        Total events ever scheduled, reserved keys included.
    fired:
        Events whose callbacks were executed, claimed keys included.
    cancelled:
        Events dropped unfired by :meth:`Simulator.discard_pending`.
    max_queue_len:
        Most events ever pending at once. Reserved keys count one each,
        whether or not an entry stands on the heap for them.
    """

    scheduled: int = 0
    fired: int = 0
    cancelled: int = 0
    max_queue_len: int = 0

    def snapshot(self) -> dict:
        """Return the counters as a plain dictionary (for reports)."""
        return {
            "scheduled": self.scheduled,
            "fired": self.fired,
            "cancelled": self.cancelled,
            "max_queue_len": self.max_queue_len,
        }


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the RNG registry. Two simulators constructed with
        the same seed and driven identically produce identical runs.
    trace:
        Optional pre-built trace log. When omitted, an active telemetry
        collector (:mod:`repro.sim.telemetry`) supplies an enabled one;
        otherwise a disabled log is created. Either way the kernel binds
        its clock, so records always carry the virtual time — callers no
        longer need to remember ``bind_clock``.
    """

    def __init__(self, seed: int = 0, trace: Optional[TraceLog] = None) -> None:
        self._now = 0.0
        self._heap: List[_HeapEntry] = []
        self._next_seq = itertools.count().__next__
        #: Reserved keys with no heap entry: pending = len(_heap) + this.
        self._reserved = 0
        self._until = math.inf
        self._running = False
        self.stats = KernelStats()
        self.rng = RngRegistry(seed)
        collector = telemetry.active()
        if trace is not None:
            self.trace = trace
        elif collector is not None:
            self.trace = collector.make_trace()
        else:
            self.trace = TraceLog(enabled=False)
        self.trace.bind_clock(lambda: self._now)
        self.metrics = MetricsRegistry()
        self.metrics.register("kernel", self.stats.snapshot)
        if collector is not None:
            collector.adopt(self)

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- scheduling --------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
    ) -> None:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        Passing a bound method plus ``args`` avoids the per-event closure
        a ``lambda`` would allocate — preferred on hot paths.

        Raises
        ------
        ScheduleInPastError
            If ``delay`` is negative (NaN is also rejected).
        """
        # `not (delay >= 0)` is one comparison that rejects both negative
        # delays and NaN (any comparison with NaN is False) — no isnan
        # call on the hot path.
        if not delay >= 0:
            raise ScheduleInPastError(f"cannot schedule with delay {delay!r}")
        # Inlined _push: this is the kernel's hottest entry point (MAC
        # backoffs and protocol timers) — one call frame matters.
        heap = self._heap
        heapq.heappush(heap, (self._now + delay, self._next_seq(), callback, args))
        stats = self.stats
        stats.scheduled += 1
        queued = len(heap) + self._reserved
        if queued > stats.max_queue_len:
            stats.max_queue_len = queued

    #: Alias of :meth:`schedule`. The benchmark's tracer
    #: (``perfbench/tracing.py``) patches all four scheduler names.
    schedule_callback = schedule

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
        seq: Optional[int] = None,
    ) -> None:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``.

        ``seq`` places the entry at a key from :meth:`reserve`.

        Raises
        ------
        ScheduleInPastError
            If ``time`` precedes the current clock (NaN is also rejected).
        """
        if not time >= self._now:
            raise ScheduleInPastError(
                f"cannot schedule at t={time!r} (now={self._now!r})"
            )
        if seq is None:
            self._push(time, callback, args)
        else:
            heapq.heappush(self._heap, (time, seq, callback, args))
            self._reserved -= 1

    def reserve(self, count: int) -> int:
        """Reserve ``count`` consecutive seqs, scheduled as of now; returns
        the first. The caller fires each reserved key once, placed with
        ``schedule_at(time, callback, args, seq)`` or in place through
        :meth:`claim`: one heap entry can stand for many events."""
        first = self._next_seq()
        if count > 1:
            self._next_seq = itertools.count(first + count).__next__
        stats = self.stats
        stats.scheduled += count
        self._reserved += count
        queued = len(self._heap) + self._reserved
        if queued > stats.max_queue_len:
            stats.max_queue_len = queued
        return first

    def claim(self, time: float, seq: int) -> bool:
        """Fire the reserved key ``(time, seq)`` from inside the running
        callback, if it is due: no heap entry precedes it and ``time`` is
        within the :meth:`run` window. Then the clock moves to ``time``
        and the event counts as fired; otherwise nothing changes and the
        caller places the key with ``schedule_at(..., seq)``."""
        heap = self._heap
        if heap:
            # The head's key precedes (time, seq)? Element-wise: cheaper
            # than building a tuple, and seq is unique, so no tie.
            head = heap[0]
            if head[0] <= time and (head[0] < time or head[1] < seq):
                return False
        if time > self._until:
            return False
        self._reserved -= 1
        self.stats.fired += 1
        self._now = time
        return True

    def claim_many(self, times: np.ndarray, seqs: np.ndarray) -> int:
        """:meth:`claim` the reserved keys ``(times[i], seqs[i])``, sorted
        ascending, one after another until one is not due; returns how
        many were. The clock ends at the last one claimed."""
        count = int(np.searchsorted(times, self._until, side="right"))
        heap = self._heap
        if heap and count:
            head_time, head_seq = heap[0][0], heap[0][1]
            before = int(np.searchsorted(times[:count], head_time, side="left"))
            tied = int(np.searchsorted(times[:count], head_time, side="right"))
            count = before + int(np.searchsorted(seqs[before:tied], head_seq))
        if count:
            self._reserved -= count
            self.stats.fired += count
            self._now = float(times[count - 1])
        return count

    def schedule_batch(
        self,
        delay: float,
        resolver: Callable[..., int],
        args: Tuple[Any, ...] = (),
    ) -> None:
        """Schedule a *macro-event*: one heap entry standing in for a
        whole batch of logical events.

        ``resolver(*args)`` fires once, resolves however many logical
        events it covers (e.g. every frame due in a transport batch),
        and **returns that count**. The kernel then credits
        ``stats.scheduled`` and ``stats.fired`` with the ``count - 1``
        events the batch absorbed, so ``events_fired`` stays an honest
        measure of logical work across per-frame and batched backends —
        a bulk run reports the same order of event counts as the
        per-frame run it replaces, while paying one heap entry.

        A resolver that returns ``0``, ``1``, or ``None`` credits
        nothing extra (the macro-event itself is already counted by the
        run loop).

        Raises
        ------
        ScheduleInPastError
            If ``delay`` is negative (NaN is also rejected).
        """
        if not delay >= 0:  # single NaN-safe comparison, as in schedule()
            raise ScheduleInPastError(f"cannot schedule with delay {delay!r}")
        self._push(self._now + delay, self._fire_batch, (resolver, args))

    def _push(
        self, time: float, callback: Callable[..., Any], args: Tuple[Any, ...]
    ) -> None:
        heap = self._heap
        heapq.heappush(heap, (time, self._next_seq(), callback, args))
        stats = self.stats
        stats.scheduled += 1
        queued = len(heap) + self._reserved
        if queued > stats.max_queue_len:
            stats.max_queue_len = queued

    def _fire_batch(
        self, resolver: Callable[..., int], args: Tuple[Any, ...]
    ) -> None:
        """Run a macro-event resolver and credit its absorbed events."""
        count = resolver(*args)
        if count is not None and count > 1:
            extra = int(count) - 1
            stats = self.stats
            stats.scheduled += extra
            stats.fired += extra

    # -- execution ---------------------------------------------------------

    def run(self, until: float = math.inf) -> None:
        """Run events until the queue drains or ``until`` passes.

        The clock is advanced to ``until`` (when finite) even if the queue
        drains earlier, so back-to-back phased protocols observe a
        consistent timeline.

        Raises
        ------
        KernelStateError
            If called re-entrantly from inside an event callback.
        """
        if self._running:
            raise KernelStateError("Simulator.run() is not re-entrant")
        if math.isnan(until) or until < self._now:
            raise KernelStateError(f"cannot run until t={until!r} (now={self._now!r})")
        self._running = True
        self._until = until
        heap = self._heap
        stats = self.stats
        heappop = heapq.heappop
        try:
            while heap and heap[0][0] <= until:
                time, _, callback, args = heappop(heap)
                self._now = time
                callback(*args)
                stats.fired += 1
        finally:
            self._running = False
        if math.isfinite(until):
            self._now = max(self._now, until)

    def discard_pending(self) -> int:
        """Drop every scheduled event without firing it; returns the count.

        The quarantine primitive for long-lived callers: when an
        exception aborts a protocol phase mid-window, the heap still
        holds that phase's unfired events, and they would otherwise
        detonate inside the *next* round's ``run(until=...)`` window
        (with the wrong handlers and the wrong aggregate). The
        aggregation service calls this after a failed round so the live
        kernel starts the next epoch clean. Dropped events are counted
        as cancelled; the clock does not move.
        """
        if self._running:
            raise KernelStateError(
                "cannot discard events from inside an event callback"
            )
        dropped = len(self._heap) + self._reserved
        self._heap.clear()
        self._reserved = 0
        self.stats.cancelled += dropped
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Simulator(now={self._now:.6f}, pending={len(self._heap)}, "
            f"fired={self.stats.fired})"
        )
