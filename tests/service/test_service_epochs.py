"""Cross-epoch regression suite for the long-lived service mode.

Pins the contracts ISSUE 9 is about:

* energy, byte counters, and *every* ``phase_bytes`` key accumulate
  monotonically across ``run_round`` calls on one live protocol;
* operator exclusion mutates the live instance — no rebuild, no ledger
  or RNG reset, the excluded node never heads a later cluster;
* the service's ``(query, epoch)`` cache can never serve a stale epoch;
* served rounds are deterministic given (deployment, config, seed,
  readings, batch composition).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.core.results import Verdict
from repro.errors import AggregationError, ProtocolError
from repro.service.queries import (
    QUERY_KINDS,
    Query,
    build_batch_aggregate,
    parse_query,
)
from repro.service.service import CACHE_EPOCHS, AggregationService
from repro.topology.deploy import uniform_deployment

NUM_NODES = 60
SEED = 19


def make_deployment(num_nodes=NUM_NODES, seed=SEED):
    return uniform_deployment(
        num_nodes, field_size=170.0, rng=np.random.default_rng(seed)
    )


def make_protocol(config=None, seed=SEED):
    return IcpdaProtocol(
        make_deployment(), config or IcpdaConfig(), seed=seed
    )


def readings_for(epoch, num_nodes=NUM_NODES):
    rng = np.random.default_rng(500 + epoch)
    return {i: float(20.0 + rng.normal(0, 1.5)) for i in range(1, num_nodes)}


def make_service(**kwargs):
    deployment = kwargs.pop("deployment", None) or make_deployment()
    return AggregationService(
        deployment,
        kwargs.pop("config", IcpdaConfig()),
        seed=kwargs.pop("seed", SEED),
        readings_provider=kwargs.pop("readings_provider", readings_for),
        **kwargs,
    )


class TestCrossEpochLedgers:
    def test_bytes_energy_and_all_phase_keys_accumulate(self):
        protocol = make_protocol()
        protocol.setup()
        bytes_trace, energy_trace, phase_traces = [], [], []
        for epoch in range(1, 4):
            protocol.run_round(readings_for(epoch), round_id=epoch)
            bytes_trace.append(protocol.total_bytes())
            energy_trace.append(protocol.stack.energy.report().total_j)
            phase_traces.append(dict(protocol.phase_bytes))

        assert all(b < a for b, a in zip(bytes_trace, bytes_trace[1:]))
        assert all(e < a for e, a in zip(energy_trace, energy_trace[1:]))
        # The historical bug: clustering/exchange/report were overwritten
        # per round (only "tree" accumulated), so multi-epoch callers saw
        # a single round's cost. Every key must now grow strictly.
        for phase in ("clustering", "exchange", "report"):
            per_epoch = [trace[phase] for trace in phase_traces]
            assert all(b < a for b, a in zip(per_epoch, per_epoch[1:])), (
                f"phase_bytes[{phase!r}] stopped accumulating: {per_epoch}"
            )
        # The tree never re-floods during rounds, so its ledger is flat.
        assert len({trace["tree"] for trace in phase_traces}) == 1

    def test_phase_ledger_consistency_with_total(self):
        protocol = make_protocol()
        protocol.setup()
        for epoch in range(1, 3):
            protocol.run_round(readings_for(epoch), round_id=epoch)
        assert sum(protocol.phase_bytes.values()) == protocol.total_bytes()

    def test_reset_phase_bytes_slices_epochs(self):
        protocol = make_protocol()
        protocol.setup()
        protocol.run_round(readings_for(1), round_id=1)
        protocol.phase_bytes.clear()
        protocol.run_round(readings_for(2), round_id=2)
        second_only = dict(protocol.phase_bytes)
        assert "tree" not in second_only  # no flood in this period
        assert set(second_only) == {"clustering", "exchange", "report"}
        assert all(v > 0 for v in second_only.values())


class TestInPlaceExclusion:
    def test_exclusion_survives_without_rebuild(self):
        protocol = make_protocol()
        protocol.setup()
        stack, sim, tree = protocol.stack, protocol.sim, protocol.tree
        result = protocol.run_round(readings_for(1), round_id=1)
        victim = next(
            h
            for h in protocol.last_clustering.clusters
            if h != protocol.deployment.base_station
        )
        bytes_before = protocol.total_bytes()
        energy_before = protocol.stack.energy.report().total_j

        protocol.exclude_heads((victim,))

        # Nothing was rebuilt or reset by the reconfiguration itself.
        assert protocol.stack is stack
        assert protocol.sim is sim
        assert protocol.tree is tree
        assert protocol.total_bytes() == bytes_before
        assert protocol.stack.energy.report().total_j == energy_before
        assert victim in protocol.config.excluded_heads

        for epoch in range(2, 5):
            result = protocol.run_round(readings_for(epoch), round_id=epoch)
            assert victim not in protocol.last_clustering.clusters
        assert protocol.total_bytes() > bytes_before
        assert result.verdict is not None

    def test_exclusions_merge(self):
        protocol = make_protocol()
        protocol.exclude_heads((7,))
        protocol.exclude_heads((9, 7))
        assert protocol.config.excluded_heads == (7, 9)


class TestServiceEpochsAndCache:
    def test_two_epochs_one_live_instance(self):
        service = make_service()
        protocol = service.protocol
        first = service.serve_batch(("sum", "avg"))
        second = service.serve_batch(("sum", "var"))
        assert service.protocol is protocol
        assert {a.epoch for a in first.values()} == {1}
        assert {a.epoch for a in second.values()} == {2}
        snap = service.snapshot()
        assert snap["epochs_served"] == 2
        assert snap["total_bytes"] == sum(snap["phase_bytes"].values())

    def test_cache_never_serves_a_stale_epoch(self):
        service = make_service()
        sum_query = Query("sum")
        service.serve_batch((sum_query,))
        epoch1 = service.answer_from_cache(sum_query, max_age_epochs=1)
        assert epoch1 is not None and epoch1.epoch == 1

        service.serve_batch(("avg",))  # epoch 2 — no SUM served

        # A freshness-1 caller must NOT get epoch 1's SUM now.
        assert service.answer_from_cache(sum_query, max_age_epochs=1) is None
        # A caller tolerating two-epoch-old answers may, explicitly.
        stale_ok = service.answer_from_cache(sum_query, max_age_epochs=2)
        assert stale_ok is not None and stale_ok.epoch == 1
        # Freshness 0 never serves from cache at all.
        assert service.answer_from_cache(sum_query, max_age_epochs=0) is None

    def test_mid_round_lookup_counts_from_the_completed_epoch(self):
        """While epoch 2's round runs (``epoch`` already 2), freshness 1
        means the newest *completed* epoch — epoch 1 — and a failed
        epoch counts as completed, with no answers to serve."""
        seen = {}
        service = None

        def provider(epoch):
            if epoch == 2:
                seen["mid_round"] = service.answer_from_cache(
                    "sum", max_age_epochs=1
                )
            if epoch == 3:
                # The MAX encoding rejects non-positive readings mid-round.
                return {i: -1.0 for i in range(1, NUM_NODES)}
            return readings_for(epoch)

        service = make_service(readings_provider=provider)
        first = service.serve_batch(("sum",))[Query("sum")]
        service.serve_batch(("avg",))
        assert seen["mid_round"] is first
        assert service.completed_epoch == 2
        with pytest.raises(AggregationError):
            service.serve_batch(("max",))
        assert service.completed_epoch == 3
        assert service.answer_from_cache("avg", max_age_epochs=1) is None
        assert service.answer_from_cache("avg", max_age_epochs=2).epoch == 2

    def test_cache_pruned_beyond_retention(self):
        service = make_service()
        for _ in range(CACHE_EPOCHS + 2):
            service.serve_batch(("sum",))
        cached_epochs = {epoch for _, epoch in service._cache}
        assert cached_epochs == set(range(3, CACHE_EPOCHS + 3))

    def test_serve_uses_cache_only_when_allowed(self):
        service = make_service()
        avg = parse_query("avg")
        first = service.serve_batch((avg,))[avg]
        assert first.epoch == 1
        assert service.answer_from_cache(avg, max_age_epochs=1) is first
        assert service.answer_from_cache(avg, max_age_epochs=0) is None
        assert service.epoch == 1  # the cache hit ran no round
        fresh = service.serve_batch((avg,))[avg]
        assert fresh.epoch == 2

    def test_batched_answers_match_solo_rounds(self):
        """One composite round decodes every constituent exactly as a
        dedicated round with the same clustering would."""
        batched = make_service().serve_batch(("sum", "avg", "var", "count"))
        solo_sum = make_service().serve_batch(("sum",))
        sum_query = parse_query("sum")
        assert batched[sum_query].value == pytest.approx(
            solo_sum[sum_query].value
        )

    def test_determinism_across_identical_services(self):
        plan = (("sum", "avg"), ("var",), ("avg", "max"))
        runs = []
        for _ in range(2):
            service = make_service()
            run = [
                {
                    (a.query.kind, a.epoch): (a.value, a.verdict)
                    for a in service.serve_batch(batch).values()
                }
                for batch in plan
            ]
            runs.append((run, service.snapshot()))
        assert runs[0] == runs[1]

    def test_rejected_round_serves_no_value_and_auto_excludes(self):
        from repro.attacks.pollution import PollutionAttack, TamperStrategy

        deployment = make_deployment(120, seed=7)
        compromised = set(range(1, 120, 3))
        service = AggregationService(
            deployment,
            IcpdaConfig(),
            seed=7,
            readings_provider=lambda epoch: readings_for(epoch, 120),
            attack_plan=PollutionAttack(
                compromised, TamperStrategy.CONSISTENT_OWN, magnitude=10_000
            ),
        )
        rejected = None
        for _ in range(6):
            answers = service.serve_batch(("sum",))
            answer = answers[Query("sum")]
            if not answer.accepted:
                rejected = answer
                break
        assert rejected is not None, "attack never triggered in 6 epochs"
        assert rejected.value is None
        assert rejected.verdict in (
            Verdict.REJECTED_ALARM,
            Verdict.REJECTED_MISMATCH,
        )
        assert service.excluded, "no suspect excluded after rejection"
        assert set(service.excluded) <= compromised

    def test_invalid_query_kind_rejected(self):
        with pytest.raises(ProtocolError):
            parse_query("median")
        with pytest.raises(ProtocolError):
            Query("median")
        with pytest.raises(ProtocolError):
            parse_query(42)


class TestBatchAggregateLayout:
    def test_canonical_order_and_dedup(self):
        aggregate, order, names = build_batch_aggregate(
            ("max", "sum", "avg", "sum"), scale=100
        )
        assert [q.kind for q in order] == ["sum", "avg", "max"]
        assert aggregate.arity == 1 + 2 + 1
        assert names[Query("avg")] == "average"

    def test_all_kinds_batch_together(self):
        aggregate, order, _ = build_batch_aggregate(QUERY_KINDS, scale=100)
        assert len(order) == len(QUERY_KINDS)
        decoded = aggregate.finalize_all(
            aggregate.components(20.0)
        )
        assert decoded["sum"] == pytest.approx(20.0)
        assert decoded["count"] == 1.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ProtocolError):
            build_batch_aggregate((), scale=100)
