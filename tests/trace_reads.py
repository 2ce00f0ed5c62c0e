"""Category-filtered reads of a :class:`~repro.sim.trace.TraceLog`.

The library walks a trace log whole (``--trace-out`` writes every
record) and counts whole categories
(:meth:`~repro.sim.trace.TraceLog.category_counts`). Tests that pin
single records, or count a category and everything nested beneath it,
read them through these.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.trace import TraceLog, TraceRecord


def matches(record: TraceRecord, prefix: str) -> bool:
    """True if the record's category equals ``prefix`` or is nested
    beneath it (``"mac"`` matches ``"mac.collision"``)."""
    return record.category == prefix or record.category.startswith(prefix + ".")


def records(log: TraceLog, prefix: Optional[str] = None) -> List[TraceRecord]:
    """Retained records, optionally under a category prefix."""
    return [r for r in log if prefix is None or matches(r, prefix)]


def count(log: TraceLog, prefix: str) -> int:
    """Number of *retained* records under a category prefix."""
    return len(records(log, prefix))


def last(log: TraceLog, prefix: Optional[str] = None) -> Optional[TraceRecord]:
    """Most recent retained record (under ``prefix`` if given), or None."""
    found = records(log, prefix)
    return found[-1] if found else None
