"""Tests for the protocol orchestrator."""

import numpy as np
import pytest

from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.core.results import Verdict
from repro.errors import ProtocolError
from repro.topology.deploy import uniform_deployment


@pytest.fixture(scope="module")
def deployment():
    return uniform_deployment(
        80, field_size=220.0, radio_range=50.0, rng=np.random.default_rng(14)
    )


def readings_for(deployment, offset=0.0):
    return {
        i: 15.0 + (i % 4) + offset for i in range(1, deployment.num_nodes)
    }


class TestLifecycle:
    def test_run_before_setup_rejected(self, deployment):
        protocol = IcpdaProtocol(deployment, IcpdaConfig(), seed=1)
        with pytest.raises(ProtocolError):
            protocol.run_round({1: 1.0})

    def test_empty_readings_rejected(self, deployment):
        protocol = IcpdaProtocol(deployment, IcpdaConfig(), seed=1)
        protocol.setup()
        with pytest.raises(ProtocolError):
            protocol.run_round({})

    def test_base_station_reading_rejected(self, deployment):
        protocol = IcpdaProtocol(deployment, IcpdaConfig(), seed=1)
        protocol.setup()
        with pytest.raises(ProtocolError):
            protocol.run_round({0: 1.0, 1: 2.0})

    def test_setup_idempotent(self, deployment):
        protocol = IcpdaProtocol(deployment, IcpdaConfig(), seed=1)
        tree_a = protocol.setup()
        tree_b = protocol.setup()
        assert tree_a is tree_b

    def test_phase_bytes_populated(self, deployment):
        protocol = IcpdaProtocol(deployment, IcpdaConfig(), seed=1)
        protocol.setup()
        protocol.run_round(readings_for(deployment))
        for phase in ("tree", "clustering", "exchange", "report"):
            assert protocol.phase_bytes[phase] > 0


class TestMultipleRounds:
    def test_consecutive_rounds_on_same_network(self, deployment):
        protocol = IcpdaProtocol(deployment, IcpdaConfig(), seed=2)
        protocol.setup()
        first = protocol.run_round(readings_for(deployment), round_id=0)
        second = protocol.run_round(
            readings_for(deployment, offset=5.0), round_id=1
        )
        assert first.verdict is Verdict.ACCEPTED
        assert second.verdict is Verdict.ACCEPTED
        # Different readings -> different true values.
        assert second.true_value > first.true_value

    def test_round_ids_change_clustering(self, deployment):
        protocol = IcpdaProtocol(deployment, IcpdaConfig(), seed=2)
        protocol.setup()
        protocol.run_round(readings_for(deployment), round_id=0)
        heads_a = set(protocol.last_clustering.clusters)
        protocol.run_round(readings_for(deployment), round_id=1)
        heads_b = set(protocol.last_clustering.clusters)
        assert heads_a != heads_b


class TestAggregateChoice:
    @pytest.mark.parametrize("name", ["sum", "count", "average", "variance"])
    def test_each_aggregate_runs(self, deployment, name):
        config = IcpdaConfig(aggregate_name=name)
        protocol = IcpdaProtocol(deployment, config, seed=3)
        protocol.setup()
        result = protocol.run_round(readings_for(deployment))
        if result.verdict.accepted:
            assert result.value is not None
            assert result.accuracy == pytest.approx(
                result.value / result.true_value
            )

    def test_average_is_loss_robust(self, deployment):
        """AVERAGE divides sum by count, so uniform loss cancels: the
        accepted average must be very close to the true average even
        though participation < 1."""
        config = IcpdaConfig(aggregate_name="average")
        protocol = IcpdaProtocol(deployment, config, seed=4)
        protocol.setup()
        result = protocol.run_round(readings_for(deployment))
        if result.verdict.accepted:
            assert result.accuracy == pytest.approx(1.0, abs=0.05)


class TestRestriction:
    def test_restricted_round_counts_only_subset(self, deployment):
        protocol = IcpdaProtocol(deployment, IcpdaConfig(), seed=5)
        protocol.setup()
        full = protocol.run_round(readings_for(deployment), round_id=0)
        heads = [
            h for h in protocol.last_exchange.completed_clusters if h != 0
        ]
        subset = tuple(heads[: len(heads) // 2])
        restricted_cfg = IcpdaConfig().with_restriction(subset)
        protocol2 = IcpdaProtocol(deployment, restricted_cfg, seed=5)
        protocol2.setup()
        restricted = protocol2.run_round(readings_for(deployment), round_id=0)
        assert restricted.contributors < full.contributors


class TestTreeMaintenance:
    def test_rebuild_routes_around_dead_relays(self, deployment):
        """After killing nodes, a rebuild excludes them from the tree."""
        protocol = IcpdaProtocol(deployment, IcpdaConfig(), seed=6)
        first = protocol.setup()
        victims = [n for n in list(first.parents)[1:4]]
        for victim in victims:
            protocol.stack.fail_node(victim)
        rebuilt = protocol.rebuild_tree()
        for victim in victims:
            assert victim not in rebuilt.parents
        assert protocol.tree is rebuilt

    def test_rebuild_accounts_bytes(self, deployment):
        protocol = IcpdaProtocol(deployment, IcpdaConfig(), seed=6)
        protocol.setup()
        before = protocol.phase_bytes["tree"]
        protocol.rebuild_tree()
        assert protocol.phase_bytes["tree"] > before

    def test_round_works_after_rebuild(self, deployment):
        protocol = IcpdaProtocol(deployment, IcpdaConfig(), seed=6)
        protocol.setup()
        protocol.rebuild_tree()
        result = protocol.run_round(readings_for(deployment))
        assert result.verdict.accepted


class TestOutsideListeners:
    """The protocol detaches only the overhear listeners its own phases
    attached; a listener attached from outside (a monitor, an
    eavesdropper) keeps hearing every round."""

    @pytest.mark.parametrize("transport", ["des", "fluid", "fluid-bulk"])
    def test_outside_wildcard_listener_fires_in_round_two(
        self, deployment, transport
    ):
        protocol = IcpdaProtocol(
            deployment, IcpdaConfig(engine="scalar"), seed=3, transport=transport
        )
        heard = []
        eavesdropper = 5
        protocol.stack.register_overhear(
            eavesdropper, lambda node, packet: heard.append(node)
        )
        protocol.setup()
        protocol.run_round(readings_for(deployment), round_id=0)
        after_first = len(heard)
        protocol.run_round(readings_for(deployment), round_id=1)
        assert after_first > 0
        assert len(heard) > after_first
        assert set(heard) == {eavesdropper}
        # The phases' own listeners do not pile up across rounds: one
        # round's worth is attached, at most one per node and kind.
        for by_node in protocol.stack._kind_overhear.values():
            assert all(len(listeners) == 1 for listeners in by_node.values())
