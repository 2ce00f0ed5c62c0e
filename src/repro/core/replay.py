"""Event heap and bucketed frame replay shared by the in-process phase engines.

The batched engines (:mod:`repro.core.clustering_batched`,
:mod:`repro.core.intracluster_batched`, :mod:`repro.core.integrity_batched`)
decide a phase's outcome in-process, then *replay* the frames that phase
would have put on the air through the Transport seam, so byte counters,
the energy ledger and the bulk transports' macro-event statistics stay
truthful. An engine that decides a cascade runs it on an
:class:`EventHeap`; :class:`FrameReplay` collects the frames into
:data:`EMIT_BUCKET_S` time buckets and emits each bucket as one
``send_many`` per kind from a single simulator callback.
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.net.transport import Transport

#: Nominal one-hop control-plane latency assumed by the in-process
#: engines. Matches ``LoopbackTransport.latency_s`` — the lossless
#: transport the scalar-equality contracts are stated against.
EPS = 1e-4

#: Replayed frames are grouped into buckets of this many virtual
#: seconds, so a 100k-node round schedules a few hundred emission
#: callbacks instead of one simulator event per frame.
EMIT_BUCKET_S = 0.05

#: Staged scalar rows closed into a batch (as int32 columns they take
#: a fraction of the lists' memory).
_STAGE_ROWS = 1 << 12

#: Rows the ``expand`` hook adds to one kind of a bucket: three lists
#: (sources, destinations, sizes), emitted after the recorded rows.
Frames = Tuple[List[int], List[int], List[int]]

#: One recorded batch: bucket, kind code (one for a whole
#: ``record_many`` batch, a column for closed scalar rows), source,
#: destination and size. Held as int32 until :meth:`FrameReplay.schedule`
#: (node ids, sizes and a phase's bucket count are far below 2^31),
#: which sorts them into the int64 columns ``send_many`` takes: the
#: recorded frames of a 100k round are held through the whole phase.
_Batch = List[Union[int, np.ndarray]]


class EventHeap:
    """Callbacks due at virtual instants, run in (instant, push) order.

    An in-process engine's clock: :attr:`now` is the instant of the
    callback running (the phase start before :meth:`run`), so a decision
    reads it where a simulated phase reads ``sim.now``.
    """

    __slots__ = ("now", "_heap", "_seq")

    def __init__(self, now: float) -> None:
        self.now = now
        self._heap: List[Tuple[float, int, Callable[..., None], Tuple[Any, ...]]] = []
        self._seq = itertools.count()

    def push(self, at: float, callback: Callable[..., None], *args: Any) -> None:
        """Call ``callback(*args)`` at instant ``at``."""
        heapq.heappush(self._heap, (at, next(self._seq), callback, args))

    def run(self, until: float) -> None:
        """Fire every callback due by ``until`` (including ones pushed on
        the way); drop the rest, like a phase deadline."""
        heap = self._heap
        while heap and heap[0][0] <= until:
            self.now, _, callback, args = heapq.heappop(heap)
            callback(*args)
        heap.clear()


class FrameReplay:
    """Frames recorded at virtual instants, replayed in time buckets.

    Parameters
    ----------
    stack:
        The transport the frames are replayed through.
    t0:
        Phase start; bucket ``k`` covers ``[t0 + k*B, t0 + (k+1)*B)``
        and is emitted at its start.
    expand:
        Optional ``expand(bucket, frames)`` hook run just before a
        bucket is emitted, to add rows the engine kept compact (the
        clustering engine's census relay chains); ``frames(kind)`` is
        the :data:`Frames` lists of that kind in the bucket.

    Recorded batches are kept whole, with bucket and kind codes; scalar
    :meth:`record` rows are staged in lists and closed into a batch at
    each :meth:`record_many` (and every :data:`_STAGE_ROWS` rows).
    :meth:`schedule`, after which nothing is recorded, plans the
    emission with array operations: a kind's ``record_many`` batches
    are joined unless staged rows lie between them, each batch is
    sorted stably by (bucket, kind) once, and its (bucket, kind)
    segments are planned in the order of their first recorded rows. A bucket
    emits one ``send_many`` per kind, kinds in first-recorded order,
    rows in recording order, the ``expand`` hook's rows last (kinds only
    the hook touched follow the recorded ones, in the hook's order).

    The transport is flushed once, after the last bucket: the bulk
    backend logs replayed batches nobody observes and settles them a
    few thousand rows at a time (see ``BulkFluidTransport.send_many``);
    a flush per bucket would settle every bucket on its own.
    """

    def __init__(
        self,
        stack: Transport,
        t0: float,
        expand: Optional[Callable[[int, Callable[[str], Frames]], None]] = None,
    ) -> None:
        self._stack = stack
        self._t0 = t0
        self._expand = expand
        #: kind -> code, in first-recorded order.
        self._codes: Dict[str, int] = {}
        # Staged scalar rows: instants, kind codes, sources, destinations, sizes.
        self._rows: Tuple[list, ...] = ([], [], [], [], [])
        self._batches: List[_Batch] = []
        #: bucket -> kind -> the (src, dst, size) slices it emits.
        self._plan: Dict[int, Dict[str, List[List[np.ndarray]]]] = {}
        self._last: Optional[int] = None

    def bucket_of(self, at: float) -> int:
        """Index of the bucket holding instant ``at``."""
        return math.floor((at - self._t0) / EMIT_BUCKET_S)

    def _code(self, kind: str) -> int:
        return self._codes.setdefault(kind, len(self._codes))

    def record(self, at: float, src: int, dst: int, kind: str, size: int) -> None:
        """Queue one frame sent at ``at``."""
        instants, codes, sources, destinations, sizes = self._rows
        instants.append(at)
        codes.append(self._code(kind))
        sources.append(src)
        destinations.append(dst)
        sizes.append(size)
        if len(instants) >= _STAGE_ROWS:
            self._close()

    def record_many(
        self,
        kind: str,
        at: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        size: np.ndarray,
    ) -> None:
        """Queue a column batch of ``kind`` frames (equal-length arrays),
        after every frame recorded before."""
        if len(at):
            self._close()
            self._append(at, self._code(kind), src, dst, size)

    def _append(self, at, code, *columns) -> None:
        at = np.asarray(at, dtype=np.float64)
        buckets = np.floor((at - self._t0) / EMIT_BUCKET_S).astype(np.int32)
        columns = (np.asarray(column).astype(np.int32) for column in columns)
        self._batches.append([buckets, code, *columns])

    def _close(self) -> None:
        """Move the staged scalar rows into a batch."""
        if self._rows[0]:
            instants, *rows = self._rows
            self._append(instants, *(np.array(r, dtype=np.int32) for r in rows))
            for rows in self._rows:
                rows.clear()

    def _segments(self, parts: List[_Batch], offsets: List[int]) -> tuple:
        """Join ``parts`` (batches of one kind, or one batch; ``offsets``:
        rows recorded before each), sort stably by (bucket, kind) and
        slice it into (bucket, kind) segments; returns their bucket,
        code, first row (its position in recording order) and slices.
        Each part's columns are dropped once joined, to bound the peak."""

        def joined(i: int) -> np.ndarray:
            column = [part[i] for part in parts]
            for part in parts:
                part[i] = None
            return column[0] if len(column) == 1 else np.concatenate(column)

        bounds = np.cumsum([0] + [part[0].size for part in parts])
        codes = parts[0][1]
        buckets = joined(0)
        key = buckets
        if not isinstance(codes, int):
            codes = joined(1)
            key = buckets.astype(np.int64) * len(self._codes) + codes
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        ends = np.r_[starts[1:], key.size].tolist()
        first = order[starts]  # the segment's first recorded row
        head = (buckets[first], np.broadcast_to(codes, buckets.shape)[first])
        del key, buckets, codes
        columns = [joined(i)[order].astype(np.int64) for i in (2, 3, 4)]
        part = np.searchsorted(bounds, first, side="right") - 1
        slices = [[c[s:e] for c in columns] for s, e in zip(starts.tolist(), ends)]
        return (*head, np.asarray(offsets)[part] + first - bounds[part], slices)

    def schedule(self, extra_buckets: Iterable[int] = ()) -> None:
        """Plan the emission and schedule one callback per non-empty
        bucket (plus ``extra_buckets``, filled only by the ``expand``
        hook)."""
        self._close()
        joins: List[List[int]] = []
        joinable: Dict[int, List[int]] = {}
        for index, (_, code, *_) in enumerate(self._batches):
            if not isinstance(code, int):
                joinable = {}  # staged rows end every join
                joins.append([index])
            elif code in joinable:
                joinable[code].append(index)
            else:
                joins.append(joinable.setdefault(code, [index]))
        offsets = np.cumsum([0] + [batch[0].size for batch in self._batches]).tolist()
        batches, self._batches = self._batches, []
        tables = [
            self._segments([batches[i] for i in join], [offsets[i] for i in join])
            for join in joins
        ]
        if tables:
            buckets, codes, first = (np.concatenate(c) for c in list(zip(*tables))[:3])
            slices = [piece for table in tables for piece in table[3]]
            kinds = list(self._codes)
            # In recording order of their first rows, so a bucket's kinds
            # fall in first-recorded order, a kind's segments in order.
            for index in np.argsort(first).tolist():
                self._plan.setdefault(int(buckets[index]), {}).setdefault(
                    kinds[codes[index]], []
                ).append(slices[index])
        sim = self._stack.sim
        scheduled = sorted(set(self._plan) | set(extra_buckets))
        self._last = scheduled[-1] if scheduled else None
        for bucket in scheduled:
            sim.schedule_at(
                self._t0 + bucket * EMIT_BUCKET_S, partial(self._emit, bucket)
            )

    def _emit(self, bucket: int) -> None:
        # One send_many per kind, as int64 columns: the bulk backend
        # seals each batch vectorized, so a wave costs per-kind work
        # instead of one Python round-trip per frame. Per-frame backends
        # run the same per-row loop this replaces; outcomes are decided
        # in-engine, so the replay only feeds accounting and kind
        # grouping is unobservable.
        by_kind = self._plan.pop(bucket, {})
        if self._expand is not None:
            added: Dict[str, Frames] = {}
            self._expand(bucket, lambda kind: added.setdefault(kind, ([], [], [])))
            for kind, rows in added.items():
                by_kind.setdefault(kind, []).append(
                    [np.array(column, dtype=np.int64) for column in rows]
                )
        for kind, pieces in by_kind.items():
            if len(pieces) > 1:
                pieces = [list(map(np.concatenate, zip(*pieces)))]
            self._stack.send_many(kind, *pieces[0])
        if bucket == self._last:
            self._stack.flush()
