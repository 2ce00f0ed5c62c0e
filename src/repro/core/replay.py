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

#: One kind's rows within a bucket: (sources, destinations, sizes).
Columns = Tuple[List[int], List[int], List[int]]


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
        Optional ``expand(bucket, by_kind)`` hook run just before a
        bucket is emitted, to add rows the engine kept compact (the
        clustering engine's census relay chains).

    The transport is flushed once, after the last bucket: the bulk
    backend logs replayed batches nobody observes and settles them a
    few thousand rows at a time (see ``BulkFluidTransport.send_many``);
    a flush per bucket would settle every bucket on its own.
    """

    def __init__(
        self,
        stack: Transport,
        t0: float,
        expand: Optional[Callable[[int, Dict[str, Columns]], None]] = None,
    ) -> None:
        self._stack = stack
        self._t0 = t0
        self._expand = expand
        self._buckets: Dict[int, Dict[str, Columns]] = {}
        self._last: Optional[int] = None

    def bucket_of(self, at: float) -> int:
        """Index of the bucket holding instant ``at``."""
        return math.floor((at - self._t0) / EMIT_BUCKET_S)

    def _columns(self, bucket: int, kind: str) -> Columns:
        by_kind = self._buckets.get(bucket)
        if by_kind is None:
            by_kind = self._buckets[bucket] = {}
        cols = by_kind.get(kind)
        if cols is None:
            cols = by_kind[kind] = ([], [], [])
        return cols

    def record(self, at: float, src: int, dst: int, kind: str, size: int) -> None:
        """Queue one frame sent at ``at``."""
        cols = self._columns(self.bucket_of(at), kind)
        cols[0].append(src)
        cols[1].append(dst)
        cols[2].append(size)

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
        src_rows = src[order].tolist()
        dst_rows = dst[order].tolist()
        size_rows = size[order].tolist()
        cuts = (np.flatnonzero(np.diff(buckets)) + 1).tolist()
        for start, end in zip([0] + cuts, cuts + [len(src_rows)]):
            cols = self._columns(int(buckets[start]), kind)
            cols[0].extend(src_rows[start:end])
            cols[1].extend(dst_rows[start:end])
            cols[2].extend(size_rows[start:end])

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
        # One send_many per kind: the bulk backend seals each batch
        # vectorized, so a wave costs per-kind work instead of one Python
        # round-trip per frame. Per-frame backends run the same per-row
        # loop this replaces; outcomes are decided in-engine, so the
        # replay only feeds accounting and kind grouping is unobservable.
        by_kind = self._buckets.pop(bucket, {})
        if self._expand is not None:
            self._expand(bucket, by_kind)
        stack = self._stack
        for kind, (srcs, dsts, sizes) in by_kind.items():
            stack.send_many(kind, srcs, dsts, sizes)
        if bucket == self._last:
            stack.flush()
