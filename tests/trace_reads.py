"""Category-filtered reads of a :class:`~repro.sim.trace.TraceLog`.

The library walks a trace log whole (``--trace-out`` writes every
record) or counts a category (:meth:`~repro.sim.trace.TraceLog.count`).
Tests that pin single records read them through these.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.trace import TraceLog, TraceRecord


def records(log: TraceLog, prefix: Optional[str] = None) -> List[TraceRecord]:
    """Retained records, optionally under a category prefix."""
    return [r for r in log if prefix is None or r.matches(prefix)]


def last(log: TraceLog, prefix: Optional[str] = None) -> Optional[TraceRecord]:
    """Most recent retained record (under ``prefix`` if given), or None."""
    found = records(log, prefix)
    return found[-1] if found else None
