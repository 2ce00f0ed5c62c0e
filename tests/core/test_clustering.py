"""Tests for distributed cluster formation."""

from collections import Counter
from dataclasses import dataclass

import pytest

from repro.aggregation.tree import build_aggregation_tree
from repro.core.clustering import CENSUS_KIND, ClusterFormation
from repro.core.config import IcpdaConfig
from repro.errors import ClusterFormationError
from repro.net.stack import NetworkStack
from repro.sim.kernel import Simulator
from tests.net.loopback import FakeSim, LoopbackTransport, line_topology


@pytest.fixture
def formed(small_deployment):
    """Run formation once on the dense 60-node network."""
    sim = Simulator(seed=21)
    stack = NetworkStack(sim, small_deployment)
    tree = build_aggregation_tree(stack)
    formation = ClusterFormation(stack, tree, IcpdaConfig(), round_id=0)
    result = formation.run()
    return stack, tree, result


class TestInvariants:
    def test_every_cluster_head_is_its_own_member(self, formed):
        _, _, result = formed
        for head, cluster in result.clusters.items():
            assert cluster.head == head
            assert head in cluster.members

    def test_membership_is_a_partition(self, formed):
        """No node appears in two clusters' member lists."""
        _, _, result = formed
        seen = set()
        for cluster in result.clusters.values():
            for member in cluster.members:
                assert member not in seen, f"{member} in two clusters"
                seen.add(member)

    def test_size_bounds_respected(self, formed):
        _, _, result = formed
        config = IcpdaConfig()
        for cluster in result.clusters.values():
            assert cluster.size <= config.k_max
            if cluster.active:
                assert cluster.size >= config.k_min or cluster.head == 0

    def test_informed_members_subset_of_members(self, formed):
        _, _, result = formed
        for cluster in result.clusters.values():
            assert cluster.informed_members <= set(cluster.members)

    def test_members_are_head_neighbors(self, formed):
        """Every joiner heard the head's announce, so it must be in
        radio range of the head."""
        stack, _, result = formed
        for cluster in result.clusters.values():
            for member in cluster.members:
                if member != cluster.head:
                    assert member in stack.adjacency[cluster.head]

    def test_base_station_is_a_head(self, formed):
        _, tree, result = formed
        assert tree.root in result.clusters

    def test_unclustered_disjoint_from_membership(self, formed):
        _, _, result = formed
        assert not (result.unclustered & set(result.membership))

    def test_census_matches_clusters(self, formed):
        """Census entries that reached the BS must agree with the real
        cluster sizes (no corruption en route)."""
        _, _, result = formed
        for head, (size, active) in result.census_at_bs.items():
            cluster = result.clusters[head]
            assert cluster.size == size
            assert cluster.active == active


class TestCoverage:
    def test_dense_network_mostly_clustered(self, formed):
        _, tree, result = formed
        clustered = len(result.membership)
        assert clustered / tree.reached > 0.85

    def test_most_clusters_active(self, formed):
        _, _, result = formed
        active = sum(1 for c in result.clusters.values() if c.active)
        assert active >= len(result.clusters) * 0.6


class TestRoundVariation:
    def test_different_rounds_different_clusters(self, small_deployment):
        """Re-clustering across rounds is the DoS defence; round ids must
        produce different head sets."""
        heads = []
        for round_id in (0, 1):
            sim = Simulator(seed=21)
            stack = NetworkStack(sim, small_deployment)
            tree = build_aggregation_tree(stack)
            result = ClusterFormation(
                stack, tree, IcpdaConfig(), round_id=round_id
            ).run()
            heads.append(frozenset(result.clusters))
        assert heads[0] != heads[1]

    def test_same_round_reproducible(self, small_deployment):
        heads = []
        for _ in range(2):
            sim = Simulator(seed=21)
            stack = NetworkStack(sim, small_deployment)
            tree = build_aggregation_tree(stack)
            result = ClusterFormation(
                stack, tree, IcpdaConfig(), round_id=0
            ).run()
            heads.append(frozenset(result.clusters))
        assert heads[0] == heads[1]


class TestEdgeCases:
    def test_empty_tree_rejected(self, small_deployment):
        sim = Simulator(seed=1)
        stack = NetworkStack(sim, small_deployment)
        from repro.aggregation.tree import TreeBuildResult

        empty = TreeBuildResult(root=0)
        with pytest.raises(ClusterFormationError):
            ClusterFormation(stack, empty, IcpdaConfig()).run()

    def test_pinned_cluster_size(self, small_deployment):
        sim = Simulator(seed=33)
        stack = NetworkStack(sim, small_deployment)
        tree = build_aggregation_tree(stack)
        config = IcpdaConfig(k_min=3, k_max=3, p_c=1 / 3)
        result = ClusterFormation(stack, tree, config).run()
        for cluster in result.clusters.values():
            if cluster.active:
                assert cluster.size == 3


@dataclass
class _SlowHop(LoopbackTransport):
    """Loopback whose hop ``node -> node - 1`` loses the first ``lost``
    copies of every census frame (default: the last tree hop, node 1 ->
    base station, where only the last of the ARQ's four transmissions,
    2.1 s after the first, gets through). Logs every census frame sent."""

    node: int = 1
    lost: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        self.copies = Counter()
        self.census = []

    def _transmit(self, packet) -> None:
        if packet.kind == CENSUS_KIND:
            self.census.append(packet)
        super()._transmit(packet)

    def _deliver(self, packet) -> None:
        if packet.kind == CENSUS_KIND and packet.src == self.node:
            key = repr(packet.payload)
            self.copies[key] += 1
            if self.copies[key] <= self.lost:
                return
        super()._deliver(packet)


def _census_run(stack):
    tree = build_aggregation_tree(stack)
    result = ClusterFormation(stack, tree, IcpdaConfig(k_min=2), round_id=0).run()
    return tree, result


def _full_census(result):
    return {head: (c.size, c.active) for head, c in result.clusters.items()}


class TestCensus:
    def test_census_survives_a_slow_hop_on_a_deep_chain(self):
        """Every closed cluster's census record reaches the base station
        although the one hop every record crosses needs all its ARQ
        retries. When each record travelled up alone inside a fixed 3 s
        window, every record behind the slow hop missed the deadline."""
        stack = _SlowHop(line_topology(12, reach=1), sim=FakeSim(seed=5))
        tree, result = _census_run(stack)
        assert tree.max_depth() == 11
        assert [h for h in result.clusters if h != 0]
        assert result.census_at_bs == _full_census(result)

    def test_one_frame_per_relay_carrying_its_subtree(self):
        """On a lossless channel each tree node sends one census frame,
        in its slot, holding the record of every closed head in its
        subtree; records are listed one per cluster, never summed."""
        stack = _SlowHop(line_topology(12, reach=1), sim=FakeSim(seed=5), lost=0)
        tree, result = _census_run(stack)
        heads = [h for h in result.clusters if h != 0]
        senders = Counter(packet.src for packet in stack.census)
        assert set(senders.values()) == {1}
        # On a chain, node n relays the records of every head at or past n.
        for packet in stack.census:
            carried = sorted(head for head, _, _ in packet.payload["records"])
            assert carried == [h for h in sorted(heads) if h >= packet.src]
        assert senders.keys() == set(range(1, max(heads) + 1))
        assert result.census_at_bs == _full_census(result)

    def test_a_late_record_is_forwarded_in_a_frame_of_its_own(self):
        """A relay that gets records after its slot (the hop below lost
        the first copy) sends them on at once, in a second frame."""
        stack = _SlowHop(
            line_topology(12, reach=1), sim=FakeSim(seed=5), node=7, lost=1
        )
        tree, result = _census_run(stack)
        assert 6 in result.clusters  # node 6 holds its own record
        slot, late = [p.payload["records"] for p in stack.census if p.src == 6]
        assert [head for head, _, _ in slot] == [6]
        assert {head for head, _, _ in late} == {h for h in result.clusters if h > 6}
        assert result.census_at_bs == _full_census(result)
