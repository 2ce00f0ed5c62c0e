"""Tests for the intra-cluster share exchange."""

import pytest

from repro.aggregation.functions import SumAggregate
from repro.aggregation.tree import build_aggregation_tree
from repro.core.clustering import ClusterFormation
from repro.core.config import IcpdaConfig
from repro.core.field import DEFAULT_FIELD
from repro.core.intracluster import IntraClusterExchange
from repro.crypto.keys import PairwiseKeyScheme
from repro.crypto.linksec import LinkSecurity
from repro.net.stack import NetworkStack
from repro.sim.kernel import Simulator


def run_exchange(deployment, seed=5, config=None, readings=None):
    config = config if config is not None else IcpdaConfig()
    sim = Simulator(seed=seed)
    stack = NetworkStack(sim, deployment)
    tree = build_aggregation_tree(stack)
    clustering = ClusterFormation(stack, tree, config).run()
    if readings is None:
        readings = {i: float(i) for i in range(1, deployment.num_nodes)}
    exchange = IntraClusterExchange(
        stack,
        clustering,
        config,
        LinkSecurity(PairwiseKeyScheme()),
        SumAggregate(),
        readings,
        DEFAULT_FIELD,
    )
    return exchange.run(), clustering, readings, stack


class TestClusterSums:
    def test_completed_cluster_sums_are_exact(self, small_deployment):
        """The recovered sum of every completed cluster equals the exact
        fixed-point sum of its participants' readings."""
        result, clustering, readings, _ = run_exchange(small_deployment)
        aggregate = SumAggregate()
        assert result.completed_clusters
        for head in result.completed_clusters:
            state = result.states[head]
            expected = sum(
                aggregate.components(readings[m])[0]
                for m in state.participants
                if m in readings
            )
            assert state.cluster_sums == (expected,)

    def test_contributors_counted(self, small_deployment):
        result, _, readings, _ = run_exchange(small_deployment)
        for head in result.completed_clusters:
            state = result.states[head]
            expected = sum(1 for m in state.participants if m in readings)
            assert state.contributors == expected

    def test_most_clusters_complete(self, small_deployment):
        result, _, _, _ = run_exchange(small_deployment)
        assert len(result.completed_clusters) >= len(result.states) * 0.8


class TestWitnessKnowledge:
    def test_witness_sums_match_head_sums(self, small_deployment):
        """Every member that recovered a sum must agree exactly with the
        head — the property peer monitoring relies on."""
        result, clustering, _, _ = run_exchange(small_deployment)
        member_to_head = {}
        for head, cluster in clustering.clusters.items():
            for member in cluster.members:
                member_to_head[member] = head
        checked = 0
        for member, sums in result.witness_sums.items():
            head = member_to_head[member]
            state = result.states.get(head)
            if state is not None and state.completed:
                assert tuple(sums) == tuple(state.cluster_sums)
                checked += 1
        assert checked > 0

    def test_most_members_become_witnesses(self, small_deployment):
        """The F-set rebroadcast should make nearly every member of a
        completed cluster sum-aware."""
        result, _, _, _ = run_exchange(small_deployment)
        total_members = sum(
            len(result.states[h].participants) for h in result.completed_clusters
        )
        assert len(result.witness_sums) >= total_members * 0.8


class TestPrivacyOnTheWire:
    def test_shares_travel_encrypted(self, small_deployment):
        """No frame of kind 'share' may carry a readable plaintext: the
        payload must be a Ciphertext that a non-holder cannot open."""
        from repro.crypto.linksec import Ciphertext
        from repro.errors import MissingKeyError

        config = IcpdaConfig()
        sim = Simulator(seed=5)
        stack = NetworkStack(sim, small_deployment)
        tree = build_aggregation_tree(stack)
        clustering = ClusterFormation(stack, tree, config).run()
        readings = {i: float(i) for i in range(1, small_deployment.num_nodes)}
        scheme = PairwiseKeyScheme()
        captured = []
        for node in stack.node_ids():
            stack.register_overhear(
                node,
                lambda _node, p: captured.append(p) if p.kind == "share" else None,
            )
        exchange = IntraClusterExchange(
            stack,
            clustering,
            config,
            LinkSecurity(scheme),
            SumAggregate(),
            readings,
            DEFAULT_FIELD,
        )
        exchange.run()
        assert captured, "no share traffic observed"
        outsider_ring = scheme.ring(10**6)  # a principal with no keys
        for packet in captured[:50]:
            ciphertext = packet.payload["ct"]
            assert isinstance(ciphertext, Ciphertext)
            with pytest.raises(MissingKeyError):
                ciphertext.open(outsider_ring)

    def test_share_log_covers_all_pairs(self, small_deployment):
        """Every participant of a completed cluster must have sent a
        share to every other participant."""
        result, _, _, _ = run_exchange(small_deployment)
        sent = {(t.origin, t.recipient) for t in result.share_log}
        for head in result.completed_clusters:
            participants = result.states[head].participants
            for a in participants:
                for b in participants:
                    if a != b:
                        assert (a, b) in sent


class TestRestriction:
    def test_non_participating_clusters_skip_exchange(self, small_deployment):
        config = IcpdaConfig()
        sim = Simulator(seed=5)
        stack = NetworkStack(sim, small_deployment)
        tree = build_aggregation_tree(stack)
        clustering = ClusterFormation(stack, tree, config).run()
        active_heads = [c.head for c in clustering.active_clusters]
        keep = set(active_heads[:2])
        readings = {i: 1.0 for i in range(1, small_deployment.num_nodes)}
        exchange = IntraClusterExchange(
            stack,
            clustering,
            config,
            LinkSecurity(PairwiseKeyScheme()),
            SumAggregate(),
            readings,
            DEFAULT_FIELD,
            participating_heads=keep,
        )
        result = exchange.run()
        assert set(result.states) <= keep
