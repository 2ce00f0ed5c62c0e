"""Bucketed frame replay shared by the in-process phase engines.

The batched engines (:mod:`repro.core.clustering_batched`,
:mod:`repro.core.intracluster_batched`, :mod:`repro.core.integrity_batched`)
decide a phase's outcome in-process, then *replay* the frames that phase
would have put on the air through the Transport seam, so byte counters,
the energy ledger and the bulk transports' macro-event statistics stay
truthful. :class:`FrameReplay` collects those frames into
:data:`EMIT_BUCKET_S` time buckets and emits each bucket as one
``send_many`` per kind from a single simulator callback.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Tuple

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

#: A run of recorded frames: (sources, destinations, sizes), int64.
Chunk = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: One kind's frames within a bucket: scalar rows staged as three lists
#: (sources, destinations, sizes), after the array runs recorded before
#: them. Rows keep their recording order.
Frames = Tuple[List[int], List[int], List[int], List[Chunk]]


def _close(frames: Frames) -> None:
    """Move the staged scalar rows into the array runs."""
    frames[3].append(tuple(np.array(rows, dtype=np.int64) for rows in frames[:3]))
    for rows in frames[:3]:
        rows.clear()


def _columns(frames: Frames) -> Chunk:
    """All of one kind's frames in a bucket, as three arrays."""
    chunks = frames[3]
    if frames[0] or not chunks:
        _close(frames)
    if len(chunks) == 1:
        return chunks[0]
    return tuple(np.concatenate(column) for column in zip(*chunks))


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
        that kind's :data:`Frames` in the bucket.

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
        self._buckets: Dict[int, Dict[str, Frames]] = {}
        self._last: Optional[int] = None

    def bucket_of(self, at: float) -> int:
        """Index of the bucket holding instant ``at``."""
        return math.floor((at - self._t0) / EMIT_BUCKET_S)

    def _frames(self, bucket: int, kind: str) -> Frames:
        by_kind = self._buckets.get(bucket)
        if by_kind is None:
            by_kind = self._buckets[bucket] = {}
        frames = by_kind.get(kind)
        if frames is None:
            frames = by_kind[kind] = ([], [], [], [])
        return frames

    def record(self, at: float, src: int, dst: int, kind: str, size: int) -> None:
        """Queue one frame sent at ``at``."""
        frames = self._frames(self.bucket_of(at), kind)
        frames[0].append(src)
        frames[1].append(dst)
        frames[2].append(size)

    def record_many(
        self,
        kind: str,
        at: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        size: np.ndarray,
    ) -> None:
        """Queue a column batch of ``kind`` frames (equal-length arrays);
        within a bucket, rows keep their batch order."""
        if not len(at):
            return
        buckets = np.floor((at - self._t0) / EMIT_BUCKET_S).astype(np.int64)
        order = np.argsort(buckets, kind="stable")
        buckets = buckets[order]
        columns = [np.asarray(c, dtype=np.int64)[order] for c in (src, dst, size)]
        cuts = (np.flatnonzero(np.diff(buckets)) + 1).tolist()
        for start, end in zip([0] + cuts, cuts + [len(order)]):
            frames = self._frames(int(buckets[start]), kind)
            if frames[0]:
                _close(frames)
            frames[3].append(tuple(column[start:end] for column in columns))

    def schedule(self, extra_buckets: Iterable[int] = ()) -> None:
        """Schedule one emission callback per non-empty bucket (plus
        ``extra_buckets``, filled only by the ``expand`` hook)."""
        sim = self._stack.sim
        buckets = sorted(set(self._buckets) | set(extra_buckets))
        self._last = buckets[-1] if buckets else None
        for bucket in buckets:
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
        if self._expand is not None:
            self._expand(bucket, partial(self._frames, bucket))
        by_kind = self._buckets.pop(bucket, {})
        stack = self._stack
        for kind, frames in by_kind.items():
            stack.send_many(kind, *_columns(frames))
        if bucket == self._last:
            stack.flush()
