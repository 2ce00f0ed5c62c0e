"""Abort-path tests: every way a cluster can fail must end in measured
loss, never corruption or a hang."""

import numpy as np

from repro.aggregation.functions import SumAggregate
from repro.aggregation.tree import build_aggregation_tree
from repro.core.clustering import ClusterFormation
from repro.core.config import IcpdaConfig
from repro.core.field import DEFAULT_FIELD
from repro.core.intracluster import IntraClusterExchange
from repro.crypto.keys import PairwiseKeyScheme
from repro.crypto.linksec import LinkSecurity
from repro.crypto.predistribution import RandomPredistributionScheme
from repro.net.stack import NetworkStack
from repro.sim.kernel import Simulator


def build_rig(deployment, seed=31):
    sim = Simulator(seed=seed)
    stack = NetworkStack(sim, deployment)
    tree = build_aggregation_tree(stack)
    return sim, stack, tree


def run_exchange(stack, clustering, readings, linksec=None):
    return IntraClusterExchange(
        stack,
        clustering,
        IcpdaConfig(),
        linksec if linksec is not None else LinkSecurity(PairwiseKeyScheme()),
        SumAggregate(),
        readings,
        DEFAULT_FIELD,
    ).run()


class TestMemberListLoss:
    def test_uninformed_member_aborts_cluster_upfront(self, small_deployment):
        """A cluster whose member never learned the list cannot complete
        a share matrix; the exchange must abort it immediately."""
        _, stack, tree = build_rig(small_deployment)
        clustering = ClusterFormation(stack, tree, IcpdaConfig()).run()
        victim_head = next(
            c.head for c in clustering.active_clusters if c.head != 0
        )
        cluster = clustering.clusters[victim_head]
        # Simulate a lost member_list at one member.
        lost_member = next(m for m in cluster.members if m != victim_head)
        cluster.informed_members.discard(lost_member)

        readings = {i: 1.0 for i in range(1, small_deployment.num_nodes)}
        result = run_exchange(stack, clustering, readings)
        state = result.states[victim_head]
        assert not state.completed
        assert state.aborted_reason == "member_list_loss"
        assert state.contributors == 0


class TestMembershipConflict:
    def test_conflicting_cluster_aborts_not_corrupts(self, small_deployment):
        _, stack, tree = build_rig(small_deployment)
        clustering = ClusterFormation(stack, tree, IcpdaConfig()).run()
        active = [c for c in clustering.active_clusters if c.head != 0]
        assert len(active) >= 2
        first, second = active[0], active[1]
        # Forge an overlap: plant one of first's members into second.
        stolen = first.members[1]
        second.members.append(stolen)
        second.informed_members.add(stolen)

        readings = {i: 1.0 for i in range(1, small_deployment.num_nodes)}
        result = run_exchange(stack, clustering, readings)
        # Both clusters hold the contested member, so *both* abort:
        # conflict resolution is symmetric and independent of cluster
        # iteration order (neither proceeds holding the stolen member).
        for head in (first.head, second.head):
            state = result.states[head]
            assert not state.completed
            assert state.aborted_reason == "membership_conflict"
            assert state.contributors == 0


class TestNoSharedKey:
    def test_unsecurable_link_aborts_cluster(self, small_deployment):
        """Under an EG scheme with hopeless overlap, clusters abort with
        no_shared_key instead of sending plaintext."""
        _, stack, tree = build_rig(small_deployment)
        clustering = ClusterFormation(stack, tree, IcpdaConfig()).run()
        scheme = RandomPredistributionScheme(
            1_000_000, 2, rng=np.random.default_rng(1)
        )
        scheme.provision_all(list(stack.node_ids()))
        readings = {i: 1.0 for i in range(1, small_deployment.num_nodes)}
        result = run_exchange(
            stack, clustering, readings, linksec=LinkSecurity(scheme)
        )
        assert result.states, "clusters were formed"
        assert not result.completed_clusters
        reasons = {s.aborted_reason for s in result.states.values()}
        assert reasons <= {"no_shared_key", "exchange_timeout", "member_list_loss"}
        assert "no_shared_key" in reasons

    def test_no_share_log_entries_for_aborted_key_clusters(
        self, small_deployment
    ):
        """A cluster that aborts for key reasons may have sent a few
        shares before discovering the hole — but never a complete
        matrix."""
        _, stack, tree = build_rig(small_deployment)
        clustering = ClusterFormation(stack, tree, IcpdaConfig()).run()
        scheme = RandomPredistributionScheme(
            1_000_000, 2, rng=np.random.default_rng(1)
        )
        scheme.provision_all(list(stack.node_ids()))
        readings = {i: 1.0 for i in range(1, small_deployment.num_nodes)}
        result = run_exchange(
            stack, clustering, readings, linksec=LinkSecurity(scheme)
        )
        for state in result.states.values():
            pairs = {
                (t.origin, t.recipient)
                for t in result.share_log
                if t.origin in state.participants
            }
            full_matrix = len(state.participants) * (
                len(state.participants) - 1
            )
            assert len(pairs) < max(full_matrix, 1) or state.completed
