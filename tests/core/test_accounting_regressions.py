"""Regression tests for the accounting bugs fixed alongside the
transport seam refactor (plus the per-round phase keys fixed with the
service mode).

Three historical bugs, one test class each:

* ``phase_bytes["tree"]`` was *overwritten* by :meth:`rebuild_tree`, so
  lifetime experiments that re-flooded after node deaths silently lost
  the earlier floods' overhead. It now accumulates, with
  ``phase_bytes.clear()`` as the explicit period boundary.
* The per-round keys (``clustering``/``exchange``/``report``) had the
  *same* bug one layer up: ``run_round`` overwrote them every epoch
  while the tree key accumulated, so multi-epoch callers (the
  continuous-monitoring example, the service mode) paired a lifetime
  tree ledger with single-round phase ledgers. All four keys now follow
  the documented accumulate-with-reset contract.
* ``_participating_heads`` dropped the base-station cluster when
  ``restrict_to_clusters`` named only remote heads, unanchoring the
  verdict's census denominator during localization subsets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.topology.deploy import uniform_deployment


def make_protocol(num_nodes=30, seed=11, config=None, transport="des"):
    deployment = uniform_deployment(
        num_nodes, field_size=120.0, rng=np.random.default_rng(seed)
    )
    return IcpdaProtocol(
        deployment, config or IcpdaConfig(), seed=seed, transport=transport
    )


class TestTreeBytesAccumulateWithReset:
    def test_rebuild_accumulates_tree_bytes(self):
        protocol = make_protocol()
        protocol.setup()
        first_flood = protocol.phase_bytes["tree"]
        assert first_flood > 0

        protocol.rebuild_tree()
        after_rebuild = protocol.phase_bytes["tree"]
        # The regression: rebuild_tree() overwrote the ledger entry, so
        # this equalled (roughly) first_flood instead of two floods.
        assert after_rebuild > first_flood
        assert after_rebuild >= 2 * first_flood * 0.9

    def test_setup_is_idempotent_on_the_ledger(self):
        protocol = make_protocol()
        protocol.setup()
        once = protocol.phase_bytes["tree"]
        protocol.setup()  # no-op: the tree already exists
        assert protocol.phase_bytes["tree"] == once

    def test_reset_phase_bytes_opens_a_fresh_period(self):
        protocol = make_protocol()
        protocol.setup()
        protocol.phase_bytes.clear()
        assert protocol.phase_bytes == {}
        rebuild_cost = None
        protocol.rebuild_tree()
        rebuild_cost = protocol.phase_bytes["tree"]
        # Post-reset, the ledger holds only the new period's flood.
        assert 0 < rebuild_cost
        protocol.rebuild_tree()
        assert protocol.phase_bytes["tree"] > rebuild_cost


class TestRoundPhaseBytesAccumulateWithReset:
    def test_round_phase_keys_accumulate_across_epochs(self):
        protocol = make_protocol()
        protocol.setup()
        readings = {i: 1.0 for i in range(1, 30)}
        protocol.run_round(readings, round_id=1)
        first = {
            phase: protocol.phase_bytes[phase]
            for phase in ("clustering", "exchange", "report")
        }
        assert all(v > 0 for v in first.values())

        protocol.run_round(readings, round_id=2)
        # The regression: these keys were overwritten per round, so after
        # two epochs each held (roughly) one round's cost.
        for phase, first_round in first.items():
            assert protocol.phase_bytes[phase] > first_round, phase

    def test_ledger_total_matches_stack_counters(self):
        protocol = make_protocol()
        protocol.setup()
        readings = {i: 1.0 for i in range(1, 30)}
        for round_id in (1, 2, 3):
            protocol.run_round(readings, round_id=round_id)
        # With every key accumulating, the ledger partitions the stack's
        # lifetime byte counter exactly — the consistency the service's
        # snapshot() exposes to operators.
        assert sum(protocol.phase_bytes.values()) == protocol.total_bytes()

    def test_reset_slices_round_phases_too(self):
        protocol = make_protocol()
        protocol.setup()
        readings = {i: 1.0 for i in range(1, 30)}
        protocol.run_round(readings, round_id=1)
        protocol.phase_bytes.clear()
        protocol.run_round(readings, round_id=2)
        assert set(protocol.phase_bytes) == {"clustering", "exchange", "report"}
        assert sum(protocol.phase_bytes.values()) < protocol.total_bytes()

    def test_phase_that_raises_leaves_its_ledger_key_untouched(self, monkeypatch):
        from repro.core.integrity import ReportAndVerdictPhase

        protocol = make_protocol()
        protocol.setup()
        readings = {i: 1.0 for i in range(1, 30)}
        protocol.run_round(readings, round_id=1)
        before = dict(protocol.phase_bytes)
        original = ReportAndVerdictPhase.run

        def run_then_fail(self, *args, **kwargs):
            original(self, *args, **kwargs)
            raise RuntimeError("report phase failed after sending")

        monkeypatch.setattr(ReportAndVerdictPhase, "run", run_then_fail)
        with pytest.raises(RuntimeError):
            protocol.run_round(readings, round_id=2)
        assert protocol.phase_bytes["report"] == before["report"]
        assert protocol.phase_bytes["exchange"] > before["exchange"]
        # The profiler still closes the failed span.
        assert protocol.profiler.snapshot()["report.count"] == 2


class TestParticipatingHeadsSemantics:
    def test_unrestricted_config_imposes_no_filter(self):
        protocol = make_protocol()
        protocol.setup()
        protocol.run_round({i: 1.0 for i in range(1, 30)})
        assert protocol._participating_heads(protocol.last_clustering) is None

    def test_bs_cluster_always_participates_under_restriction(self):
        base = make_protocol()
        base.setup()
        base.run_round({i: 1.0 for i in range(1, 30)})
        clustering = base.last_clustering
        bs = base.deployment.base_station
        remote_heads = [h for h in clustering.clusters if h != bs]
        assert remote_heads, "need at least one non-BS cluster"

        config = IcpdaConfig().with_restriction((remote_heads[0],))
        restricted = make_protocol(config=config)
        restricted.setup()
        result = restricted.run_round({i: 1.0 for i in range(1, 30)})
        participating = restricted._participating_heads(
            restricted.last_clustering
        )
        # The regression: restrict named only a remote head, and the BS
        # cluster fell out of the participating set.
        assert bs in participating
        assert participating <= set(restricted.last_clustering.clusters)
        assert result.contributors > 0

    def test_unformed_restricted_heads_are_dropped(self):
        protocol = make_protocol()
        protocol.setup()
        protocol.run_round({i: 1.0 for i in range(1, 30)})
        clustering = protocol.last_clustering
        never_a_head = next(
            n
            for n in range(1, 30)
            if n not in clustering.clusters
        )
        protocol.config = IcpdaConfig().with_restriction((never_a_head,))
        participating = protocol._participating_heads(clustering)
        assert never_a_head not in participating
        assert participating == {protocol.deployment.base_station}
