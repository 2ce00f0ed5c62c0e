"""Asyncio front-end for the aggregation service.

:class:`AggregationGateway` turns the synchronous
:class:`~repro.service.service.AggregationService` into a concurrent
query endpoint:

* **Admission control** — a bounded pending queue; when it is full,
  :meth:`query` fails *immediately* with :class:`QueryRejected` instead
  of queueing unbounded work (the caller decides whether to retry).
* **Batching** — one worker drains everything pending and serves it as
  a single protocol round; concurrent SUM/AVG/VAR/MIN/MAX queries that
  arrive together cost one round, not five. Protocol rounds are CPU
  bound, so the worker hands them to the loop's default executor and the
  event loop keeps accepting (and rejecting) queries meanwhile.
* **Caching** — a query that tolerates answers up to ``max_age_epochs``
  old is served straight from the ``(query, epoch)`` cache when the
  service already answered that kind recently; freshness-0 queries
  always wait for a round that *starts* after they were admitted.

Rounds are serialized by construction (one worker), which is also the
thread-safety contract: the simulator underneath is single-threaded.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.service.queries import Query, parse_query
from repro.service.service import AggregationService, ServedAnswer


class QueryRejected(ProtocolError):
    """The gateway refused a query at admission (pending queue full)."""


@dataclass
class GatewayStats:
    """Gateway-side counters plus the answer-latency record.

    ``latencies_s`` holds one wall-clock admission->answer latency per
    served (non-rejected) query, in completion order — the raw series
    behind the benchmark's p50/p95/p99.
    """

    submitted: int = 0
    served: int = 0
    rejected: int = 0
    cache_hits: int = 0
    batches: int = 0
    largest_batch: int = 0
    latencies_s: List[float] = field(default_factory=list)

    def latency_percentiles(self) -> Dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` over served queries
        (nearest-rank; zeros when nothing was served yet)."""
        if not self.latencies_s:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        ordered = sorted(self.latencies_s)
        last = len(ordered) - 1
        return {
            name: ordered[min(last, int(len(ordered) * q))]
            for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))
        }


class AggregationGateway:
    """Concurrent query endpoint over one :class:`AggregationService`.

    Parameters
    ----------
    service:
        The long-lived synchronous core. The gateway is its only driver
        while running (rounds must be serialized).
    max_pending:
        Admission bound: maximum queries admitted but not yet answered.
        Further submissions raise :class:`QueryRejected` immediately.

    The worker drains only what is already queued when a round starts
    (lowest latency); queries that arrive during a round form the next
    batch.

    Usage::

        gateway = AggregationGateway(service, max_pending=32)
        await gateway.start()
        answer = await gateway.query("avg")
        await gateway.stop()
    """

    def __init__(
        self,
        service: AggregationService,
        *,
        max_pending: int = 64,
    ) -> None:
        if max_pending < 1:
            raise ProtocolError(f"max_pending must be >= 1, got {max_pending}")
        self.service = service
        self.stats = GatewayStats()
        self._max_pending = max_pending
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=max_pending)
        self._worker: Optional[asyncio.Task] = None
        self._closing = False

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Run Phase I (in the executor) and start the batching worker."""
        if self._worker is not None:
            return
        self._closing = False
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.service.start)
        self._worker = loop.create_task(self._serve_loop(), name="icpda-gateway")

    async def stop(self) -> None:
        """Answer everything already admitted, then stop the worker."""
        if self._worker is None:
            return
        self._closing = True
        if not self._worker.done():
            # Wait for the queue to drain — but bail if the worker dies
            # first, or join() would wait forever on orphaned items.
            drained = asyncio.get_running_loop().create_task(self._queue.join())
            await asyncio.wait(
                {drained, self._worker}, return_when=asyncio.FIRST_COMPLETED
            )
            drained.cancel()
        self._worker.cancel()
        try:
            await self._worker
        except asyncio.CancelledError:
            pass
        self._worker = None

    # -- client API --------------------------------------------------------------

    async def query(self, query, *, max_age_epochs: int = 0) -> ServedAnswer:
        """Answer one query, batched with whatever else is pending.

        ``max_age_epochs > 0`` permits a cached answer at most that many
        served epochs old; ``0`` (the default) guarantees the answer
        comes from a round that started after this call was admitted.

        Raises
        ------
        QueryRejected
            When the gateway is stopped/stopping or the pending queue is
            full (admission control — the service is overloaded).
        """
        parsed = parse_query(query)
        self.stats.submitted += 1
        if self._worker is None or self._closing:
            self.stats.rejected += 1
            raise QueryRejected("gateway is not accepting queries")
        if max_age_epochs > 0:
            cached = self.service.answer_from_cache(
                parsed, max_age_epochs=max_age_epochs
            )
            if cached is not None:
                self.stats.cache_hits += 1
                self.stats.served += 1
                return cached
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        admitted_at = loop.time()
        try:
            self._queue.put_nowait((parsed, future, admitted_at))
        except asyncio.QueueFull:
            self.stats.rejected += 1
            raise QueryRejected(
                f"pending queue full ({self._max_pending} queries in flight)"
            ) from None
        return await future

    @property
    def pending(self) -> int:
        """Queries admitted but not yet handed to a round."""
        return self._queue.qsize()

    # -- worker ------------------------------------------------------------------

    async def _serve_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch: List[Tuple[Query, asyncio.Future, float]] = [
                await self._queue.get()
            ]
            while True:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            kinds = sorted({query for query, _, _ in batch}, key=lambda q: q.kind)
            try:
                answers = await loop.run_in_executor(
                    None, self.service.serve_batch, kinds
                )
            except Exception as error:  # noqa: BLE001 — forwarded to waiters
                self._resolve(batch, None, error, loop)
            else:
                self._resolve(batch, answers, None, loop)

    def _resolve(
        self,
        batch: List[Tuple[Query, asyncio.Future, float]],
        answers: Optional[Dict[Query, ServedAnswer]],
        error: Optional[BaseException],
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        self.stats.batches += 1
        self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
        done_at = loop.time()
        for query, future, admitted_at in batch:
            if not future.cancelled():
                if error is not None:
                    future.set_exception(error)
                else:
                    future.set_result(answers[query])
                    self.stats.served += 1
                    self.stats.latencies_s.append(done_at - admitted_at)
            self._queue.task_done()
