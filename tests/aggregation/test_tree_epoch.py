"""Unit tests for distributed tree construction and epoch scheduling."""

import numpy as np
import pytest

from repro.aggregation.epoch import EpochSchedule
from repro.aggregation.tree import build_aggregation_tree
from repro.errors import AggregationError
from repro.net.stack import NetworkStack
from repro.sim.kernel import Simulator
from tests.conftest import make_line_deployment


class TestTreeConstruction:
    def test_line_topology_gives_chain_tree(self):
        sim = Simulator(seed=1)
        stack = NetworkStack(sim, make_line_deployment(5))
        tree = build_aggregation_tree(stack)
        assert tree.parents == {0: None, 1: 0, 2: 1, 3: 2, 4: 3}
        assert tree.depths == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
        assert tree.max_depth() == 4
        assert [n for n in tree.parents if not tree.children.get(n)] == [4]

    def test_dense_network_full_coverage(self, small_deployment):
        sim = Simulator(seed=2)
        stack = NetworkStack(sim, small_deployment)
        tree = build_aggregation_tree(stack)
        assert tree.reached / small_deployment.num_nodes > 0.9

    def test_depths_consistent_with_parents(self, small_deployment):
        sim = Simulator(seed=3)
        stack = NetworkStack(sim, small_deployment)
        tree = build_aggregation_tree(stack)
        for node, parent in tree.parents.items():
            if parent is not None:
                assert tree.depths[node] == tree.depths[parent] + 1

    def test_children_inverse_of_parents(self, small_deployment):
        sim = Simulator(seed=4)
        stack = NetworkStack(sim, small_deployment)
        tree = build_aggregation_tree(stack)
        for parent, children in tree.children.items():
            for child in children:
                assert tree.parents[child] == parent

    def test_subtree_sizes(self):
        sim = Simulator(seed=1)
        stack = NetworkStack(sim, make_line_deployment(4))
        tree = build_aggregation_tree(stack)
        sizes = {node: 0 for node in tree.parents}
        for node in tree.parents:
            ancestor = node
            while ancestor is not None:
                sizes[ancestor] += 1
                ancestor = tree.parents[ancestor]
        assert sizes == {0: 4, 1: 3, 2: 2, 3: 1}

    def test_deterministic_under_seed(self, small_deployment):
        trees = []
        for _ in range(2):
            sim = Simulator(seed=11)
            stack = NetworkStack(sim, small_deployment)
            trees.append(build_aggregation_tree(stack).parents)
        assert trees[0] == trees[1]


class TestEpochSchedule:
    def test_deeper_levels_send_earlier(self):
        schedule = EpochSchedule(epoch_start=0.0, slot_s=1.0, max_depth=4)
        assert schedule.send_time(4) < schedule.send_time(3) < schedule.send_time(0)

    def test_epoch_end_after_root_slot(self):
        schedule = EpochSchedule(epoch_start=0.0, slot_s=1.0, max_depth=4)
        assert schedule.epoch_end > schedule.send_time(0, jitter=0.99)

    def test_jitter_stays_in_slot(self):
        schedule = EpochSchedule(epoch_start=0.0, slot_s=1.0, max_depth=2)
        base = schedule.send_time(1, jitter=0.0)
        jittered = schedule.send_time(1, jitter=0.999)
        assert base <= jittered < base + 1.0

    def test_depth_out_of_range_rejected(self):
        schedule = EpochSchedule(epoch_start=0.0, slot_s=1.0, max_depth=2)
        with pytest.raises(AggregationError):
            schedule.send_time(3)
        with pytest.raises(AggregationError):
            schedule.send_time(-1)

    def test_bad_jitter_rejected(self):
        schedule = EpochSchedule(epoch_start=0.0, slot_s=1.0, max_depth=2)
        with pytest.raises(AggregationError):
            schedule.send_time(1, jitter=1.0)

    def test_schedule_all(self):
        schedule = EpochSchedule(epoch_start=10.0, slot_s=0.5, max_depth=3)
        rng = np.random.default_rng(0)
        depths = {1: 1, 2: 2, 3: 3}
        times = {
            node: schedule.send_time(depth, float(rng.random()))
            for node, depth in depths.items()
        }
        assert set(times) == {1, 2, 3}
        assert times[3] < times[2] < times[1]

    def test_validation(self):
        with pytest.raises(AggregationError):
            EpochSchedule(epoch_start=0.0, slot_s=0.0, max_depth=1)
        with pytest.raises(AggregationError):
            EpochSchedule(epoch_start=0.0, slot_s=1.0, max_depth=-1)


class TestQueryDissemination:
    def test_all_reached_nodes_receive_the_query(self, small_deployment):
        sim = Simulator(seed=15)
        stack = NetworkStack(sim, small_deployment)
        tree = build_aggregation_tree(stack, query="sum+count")
        for node in tree.parents:
            assert tree.query_at[node] == "sum+count"

    def test_default_query_is_empty(self, small_deployment):
        sim = Simulator(seed=16)
        stack = NetworkStack(sim, small_deployment)
        tree = build_aggregation_tree(stack)
        assert all(q == "" for q in tree.query_at.values())

    def test_protocol_disseminates_its_aggregate(self, small_deployment):
        from repro.core.config import IcpdaConfig
        from repro.core.protocol import IcpdaProtocol

        protocol = IcpdaProtocol(
            small_deployment, IcpdaConfig(aggregate_name="variance"), seed=17
        )
        tree = protocol.setup()
        assert set(tree.query_at.values()) == {"variance"}
