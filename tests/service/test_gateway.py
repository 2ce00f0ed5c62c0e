"""Asyncio gateway behaviors: batching, admission control, caching,
error propagation, clean shutdown.

No pytest-asyncio in the image, so each test drives its own event loop
via ``asyncio.run`` — which also mirrors how the benchmark and the CI
smoke job drive the gateway.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.core.config import IcpdaConfig
from repro.errors import AggregationError, ProtocolError
from repro.service.gateway import AggregationGateway, QueryRejected
from repro.service.service import AggregationService
from repro.topology.deploy import uniform_deployment

NUM_NODES = 60
SEED = 19


def readings_for(epoch):
    rng = np.random.default_rng(500 + epoch)
    return {i: float(20.0 + rng.normal(0, 1.5)) for i in range(1, NUM_NODES)}


def make_service(**kwargs):
    deployment = uniform_deployment(
        NUM_NODES, field_size=170.0, rng=np.random.default_rng(SEED)
    )
    return AggregationService(
        deployment,
        IcpdaConfig(),
        seed=SEED,
        readings_provider=kwargs.pop("readings_provider", readings_for),
        **kwargs,
    )


class TestBatching:
    def test_concurrent_queries_coalesce_into_few_rounds(self):
        async def scenario():
            service = make_service()
            gateway = AggregationGateway(service, max_pending=16)
            await gateway.start()
            answers = await asyncio.gather(
                *(gateway.query(kind) for kind in ("sum", "avg", "var", "sum"))
            )
            await gateway.stop()
            return service, gateway, answers

        service, gateway, answers = asyncio.run(scenario())
        # All four submissions admitted together: at most two rounds
        # (the worker may grab the first before the rest enqueue).
        assert service.epoch <= 2
        assert gateway.stats.served == 4
        by_kind = {a.query.kind: a for a in answers}
        assert answers[0].value == by_kind["sum"].value  # shared answer
        assert all(a.accepted for a in answers)

    def test_sequential_queries_get_fresh_epochs(self):
        async def scenario():
            service = make_service()
            gateway = AggregationGateway(service)
            await gateway.start()
            first = await gateway.query("avg")
            second = await gateway.query("avg")
            await gateway.stop()
            return first, second

        first, second = asyncio.run(scenario())
        assert first.epoch < second.epoch  # freshness-0: never cached


class TestAdmissionControl:
    def test_queue_full_rejects_immediately(self):
        async def scenario():
            service = make_service()
            gateway = AggregationGateway(service, max_pending=2)
            await gateway.start()
            # Flood well past the bound while the worker is busy with a
            # round: the queue holds 2, the rest must be turned away at
            # admission (QueryRejected), not queued.
            tasks = [
                asyncio.create_task(gateway.query("sum")) for _ in range(12)
            ]
            results = await asyncio.gather(*tasks, return_exceptions=True)
            await gateway.stop()
            return gateway, results

        gateway, results = asyncio.run(scenario())
        rejections = [r for r in results if isinstance(r, QueryRejected)]
        served = [r for r in results if not isinstance(r, Exception)]
        assert rejections, "flooding past max_pending must reject"
        assert gateway.stats.rejected == len(rejections)
        assert served, "admitted queries must still be answered"
        assert gateway.stats.served == len(served)
        assert len(served) + len(rejections) == 12

    def test_query_after_stop_rejected(self):
        async def scenario():
            service = make_service()
            gateway = AggregationGateway(service)
            await gateway.start()
            await gateway.query("sum")
            await gateway.stop()
            with pytest.raises(QueryRejected):
                await gateway.query("sum")

        asyncio.run(scenario())

    def test_constructor_validation(self):
        service = make_service()
        with pytest.raises(ProtocolError):
            AggregationGateway(service, max_pending=0)


class TestCaching:
    def test_cached_query_skips_the_round(self):
        async def scenario():
            service = make_service()
            gateway = AggregationGateway(service)
            await gateway.start()
            fresh = await gateway.query("avg")
            cached = await gateway.query("avg", max_age_epochs=1)
            await gateway.stop()
            return service, gateway, fresh, cached

        service, gateway, fresh, cached = asyncio.run(scenario())
        assert cached is fresh
        assert service.epoch == 1  # the cached query ran no round
        assert gateway.stats.cache_hits == 1

    def test_cache_miss_runs_a_round(self):
        async def scenario():
            service = make_service()
            gateway = AggregationGateway(service)
            await gateway.start()
            await gateway.query("avg")
            other = await gateway.query("var", max_age_epochs=1)
            await gateway.stop()
            return service, other

        service, other = asyncio.run(scenario())
        assert other.epoch == 2
        assert service.epoch == 2

    def test_query_admitted_mid_round_hits_previous_epoch(self):
        """Regression: ``serve_batch`` bumps ``epoch`` before its round
        runs, and the cache used to count freshness from there, so under
        load a ``max_age_epochs=1`` query only ever looked up the epoch
        still in flight and missed."""
        in_round = threading.Event()
        release = threading.Event()

        def provider(epoch):
            if epoch == 2:
                in_round.set()
                release.wait(timeout=30)
            return readings_for(epoch)

        async def scenario():
            service = make_service(readings_provider=provider)
            gateway = AggregationGateway(service)
            await gateway.start()
            first = await gateway.query("sum")
            busy = asyncio.create_task(gateway.query("avg"))
            await asyncio.get_running_loop().run_in_executor(
                None, in_round.wait, 30
            )
            assert service.epoch == 2  # epoch 2's round is in flight
            cached = await gateway.query("sum", max_age_epochs=1)
            release.set()
            second = await busy
            await gateway.stop()
            return gateway, first, cached, second

        gateway, first, cached, second = asyncio.run(scenario())
        assert cached is first
        assert gateway.stats.cache_hits == 1
        assert second.epoch == 2


class TestErrorsAndShutdown:
    def test_round_errors_propagate_to_waiters(self):
        def bad_provider(epoch):
            if epoch >= 2:
                # min~/max~ power-mean encoding rejects non-positive
                # readings — a realistic served-round failure.
                return {i: -1.0 for i in range(1, NUM_NODES)}
            return readings_for(epoch)

        async def scenario():
            service = make_service(readings_provider=bad_provider)
            gateway = AggregationGateway(service)
            await gateway.start()
            first = await gateway.query("max")
            with pytest.raises(AggregationError):
                await gateway.query("max")
            # The worker survives a failed batch and keeps serving.
            third = await gateway.query("sum")
            await gateway.stop()
            return first, third

        first, third = asyncio.run(scenario())
        assert first.accepted
        assert third.epoch == 3

    def test_stop_is_idempotent_and_restartable(self):
        async def scenario():
            service = make_service()
            gateway = AggregationGateway(service)
            await gateway.start()
            await gateway.start()  # no-op
            one = await gateway.query("sum")
            await gateway.stop()
            await gateway.stop()  # no-op
            await gateway.start()
            two = await gateway.query("sum")
            await gateway.stop()
            return service, one, two

        service, one, two = asyncio.run(scenario())
        # Restart reuses the same live service: epochs keep counting.
        assert (one.epoch, two.epoch) == (1, 2)
        assert service.protocol.tree is not None

    def test_latency_percentiles_shape(self):
        async def scenario():
            service = make_service()
            gateway = AggregationGateway(service)
            await gateway.start()
            await asyncio.gather(*(gateway.query("sum") for _ in range(3)))
            await gateway.stop()
            return gateway

        gateway = asyncio.run(scenario())
        percentiles = gateway.stats.latency_percentiles()
        assert set(percentiles) == {"p50", "p95", "p99"}
        assert 0 < percentiles["p50"] <= percentiles["p95"] <= percentiles["p99"]
        assert len(gateway.stats.latencies_s) == 3

    def test_empty_latency_percentiles_are_zero(self):
        from repro.service.gateway import GatewayStats

        assert GatewayStats().latency_percentiles() == {
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }
