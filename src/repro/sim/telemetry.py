"""Process-local run telemetry collection.

The experiment engine runs *cells* — pure functions that internally
build one or more :class:`~repro.sim.kernel.Simulator` instances — and
needs the traces and metrics of every simulator a cell created, without
threading a handle through 17 experiment modules. This module is the
choke point: :func:`collect` installs a process-local
:class:`TelemetryCollector`; while it is active, every ``Simulator``
constructed with a default trace gets an **enabled** trace log (with the
collector's category whitelist and capacity ring) and registers itself,
so at cell end the collector can export merged JSONL trace lines and a
summed metrics snapshot.

Collection is per-process state, not per-thread: the engine runs every
cell on the main thread of the process that calls it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.sim.trace import TraceLog

#: Default capacity ring per simulator while collecting — a guard against
#: unbounded memory on long soak cells; lifetime category counts are
#: unaffected by eviction.
DEFAULT_TRACE_CAPACITY = 200_000

_ACTIVE: Optional["TelemetryCollector"] = None


class TelemetryCollector:
    """Gathers traces and metrics from every simulator built while active.

    Parameters
    ----------
    categories:
        Optional trace category prefix whitelist (e.g. ``["medium",
        "mac"]``); None keeps everything.
    capacity:
        Per-simulator trace ring size (None = unbounded).
    """

    def __init__(
        self,
        categories: Optional[Sequence[str]] = None,
        capacity: Optional[int] = DEFAULT_TRACE_CAPACITY,
    ) -> None:
        self.categories = list(categories) if categories else None
        self.capacity = capacity
        self.simulators: List[Any] = []

    # -- hooks called by Simulator.__init__ --------------------------------

    def make_trace(self) -> TraceLog:
        """The trace log a collector-era simulator should use."""
        return TraceLog(
            enabled=True, categories=self.categories, capacity=self.capacity
        )

    def adopt(self, sim: Any) -> None:
        """Track ``sim`` for end-of-collection export."""
        self.simulators.append(sim)

    # -- export -------------------------------------------------------------

    def trace_lines(self) -> Iterator[str]:
        """All retained records as JSONL lines, simulator by simulator (in
        creation order); multi-simulator cells get a ``sim`` index field
        appended to each line's object."""
        multi = len(self.simulators) > 1
        for index, sim in enumerate(self.simulators):
            for record in sim.trace:
                line = record.to_json()
                if multi:
                    # splice the sim index into the object: cheap and keeps
                    # TraceRecord itself simulator-agnostic.
                    line = line[:-1] + f', "sim": {index}}}'
                yield line

    def category_counts(self) -> Dict[str, int]:
        """Summed per-category record counts across simulators."""
        totals: Dict[str, int] = {}
        for sim in self.simulators:
            for category, count in sim.trace.category_counts().items():
                totals[category] = totals.get(category, 0) + count
        return totals

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Merged registry snapshots across simulators.

        Numeric values are summed across simulators (run totals);
        non-numeric values keep the last simulator's reading.
        """
        merged: Dict[str, Any] = {}
        for sim in self.simulators:
            for key, value in sim.metrics.snapshot().items():
                if (
                    isinstance(value, (int, float))
                    and not isinstance(value, bool)
                    and isinstance(merged.get(key), (int, float))
                    and not isinstance(merged.get(key), bool)
                ):
                    merged[key] = merged[key] + value
                else:
                    merged[key] = value
        return merged


def active() -> Optional[TelemetryCollector]:
    """The collector currently installed in this process, or None."""
    return _ACTIVE


@contextmanager
def collect(
    categories: Optional[Sequence[str]] = None,
    capacity: Optional[int] = DEFAULT_TRACE_CAPACITY,
) -> Iterator[TelemetryCollector]:
    """Install a fresh collector for the ``with`` body; restores the
    previous one (usually None) on exit, even on error. Nesting works —
    the inner collector shadows the outer for simulators built inside."""
    global _ACTIVE
    previous = _ACTIVE
    collector = TelemetryCollector(categories=categories, capacity=capacity)
    _ACTIVE = collector
    try:
        yield collector
    finally:
        _ACTIVE = previous
