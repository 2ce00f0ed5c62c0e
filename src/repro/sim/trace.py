"""Structured trace logging for simulation runs.

A :class:`TraceLog` collects :class:`TraceRecord` entries — ``(time,
category, message, fields)`` — that protocols emit at interesting points
(transmissions, collisions, cluster elections, integrity alarms...).
Tracing is disabled by default and is designed to cost one attribute check
per call when off, so protocol code can trace unconditionally.

Beyond in-memory querying, a trace is exportable: :meth:`TraceRecord.to_json`
serializes a record as one strict JSON line (the format of the per-cell
``--trace-out`` artifacts, which any ``jq``-style tool parses), and
:meth:`TraceLog.from_jsonl` reads such lines back into a log.
"""

from __future__ import annotations

import json
import math
import pathlib
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Union,
)

@dataclass(frozen=True)
class TraceRecord:
    """One trace entry.

    Attributes
    ----------
    time:
        Virtual time of the emitting event.
    category:
        Dotted category, e.g. ``"mac.collision"`` or ``"icpda.alarm"``.
    message:
        Human-readable one-liner.
    fields:
        Structured payload for programmatic assertions in tests.
    """

    time: float
    category: str
    message: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def matches(self, prefix: str) -> bool:
        """True if the record's category equals ``prefix`` or is nested
        beneath it (``"mac"`` matches ``"mac.collision"``)."""
        return self.category == prefix or self.category.startswith(prefix + ".")

    def to_json(self) -> str:
        """The record as one strict-JSON line (non-finite floats become
        ``null``; non-JSON field values fall back to ``repr``)."""
        return json.dumps(
            {
                "time": _jsonable(self.time),
                "category": self.category,
                "message": self.message,
                "fields": _jsonable(self.fields),
            },
            sort_keys=True,
            allow_nan=False,
            default=repr,
        )

    @staticmethod
    def from_json(line: str) -> "TraceRecord":
        """Parse one JSONL line back into a record."""
        data = json.loads(line, parse_constant=lambda token: None)
        return TraceRecord(
            time=float(data["time"]) if data["time"] is not None else 0.0,
            category=data["category"],
            message=data.get("message", ""),
            fields=dict(data.get("fields") or {}),
        )


def _jsonable(value: Any) -> Any:
    """Canonicalize for strict JSON: non-finite floats -> None, tuples ->
    lists, mappings/sequences walked recursively."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


class TraceLog:
    """Append-only log of :class:`TraceRecord` entries with filtering.

    Parameters
    ----------
    enabled:
        When False (the default for production runs), :meth:`emit` is a
        near-no-op; the plain mirror attribute :attr:`on` lets hot call
        sites skip even that (``if trace.on: trace.emit(...)``).
    categories:
        Optional whitelist of category prefixes; when set, only matching
        records are kept.
    capacity:
        Optional maximum record count held in memory; the oldest records
        are dropped once exceeded (an O(1) ``deque`` ring for long soak
        runs — :meth:`category_counts` still counts every kept emit).
    """

    def __init__(
        self,
        enabled: bool = True,
        categories: Optional[List[str]] = None,
        capacity: Optional[int] = None,
    ) -> None:
        self._categories = list(categories) if categories else None
        self._capacity = capacity
        self._records: Deque[TraceRecord] = deque(maxlen=capacity)
        self._clock: Callable[[], float] = lambda: 0.0
        self._category_totals: Counter = Counter()
        self.enabled = enabled

    @property
    def enabled(self) -> bool:
        """Whether :meth:`emit` records anything at all."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        # Swap the bound `emit` so a disabled log pays for nothing but the
        # call itself — hot paths may trace unconditionally with lazy
        # %-style templates and no formatting ever happens while off.
        # ``on`` mirrors the flag as a *plain attribute* so the hottest
        # call sites (medium transmit/receive, MAC backoff) can guard with
        # ``if trace.on: trace.emit(...)`` — one dict lookup when tracing
        # is off, no kwargs dict, no call at all.
        self._enabled = bool(value)
        self.on = self._enabled
        self.emit = self._emit if self._enabled else self._emit_noop

    @property
    def capacity(self) -> Optional[int]:
        """Ring size, or None when unbounded."""
        return self._capacity

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the time source (normally ``lambda: sim.now``)."""
        self._clock = clock

    @staticmethod
    def _emit_noop(category: str, message: str = "", **fields: Any) -> None:
        """The :meth:`emit` implementation while tracing is disabled."""

    def _emit(self, category: str, message: str = "", **fields: Any) -> None:
        """Record an entry if the category passes the whitelist.

        ``message`` may be a ``%``-style template over ``fields``
        (e.g. ``"node %(sender)s sends %(kind)s"``); it is formatted only
        when the record is actually kept, so call sites never pay for
        string building on filtered or disabled traces.
        """
        if self._categories is not None and not any(
            category == c or category.startswith(c + ".") for c in self._categories
        ):
            return
        if fields and "%(" in message:
            message = message % fields
        record = TraceRecord(
            time=self._clock(), category=category, message=message, fields=fields
        )
        self._records.append(record)
        self._category_totals[category] += 1

    #: Class-level fallback so ``TraceLog.emit`` stays introspectable; the
    #: constructor rebinds the instance attribute via the setter above.
    emit = _emit

    # -- querying ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def count(self, prefix: str) -> int:
        """Number of *retained* records under a category prefix."""
        return sum(1 for r in self._records if r.matches(prefix))

    def category_counts(self) -> Dict[str, int]:
        """Exact category -> number of records ever kept.

        Counts survive capacity-ring eviction: they are lifetime totals
        since construction (or the last :meth:`clear`), which is what the
        telemetry layer reports per run.
        """
        return dict(self._category_totals)

    def clear(self) -> None:
        """Drop all records and category totals (counters in kernel stats
        are unaffected)."""
        self._records.clear()
        self._category_totals.clear()

    # -- JSONL import -------------------------------------------------------

    @classmethod
    def from_jsonl(
        cls, source: Union[str, pathlib.Path, Iterable[str]]
    ) -> "TraceLog":
        """Rebuild a (disabled) trace log from a JSONL file or lines.

        The returned log holds the imported records for querying —
        iteration, ``count()``, ``category_counts()`` — but is not
        clock-bound and starts disabled, since it replays a past run.
        """
        if isinstance(source, (str, pathlib.Path)):
            lines: Iterable[str] = pathlib.Path(source).read_text().splitlines()
        else:
            lines = source
        log = cls(enabled=False)
        for line in lines:
            line = line.strip()
            if not line:
                continue
            record = TraceRecord.from_json(line)
            log._records.append(record)
            log._category_totals[record.category] += 1
        return log
