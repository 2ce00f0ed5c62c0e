"""Unit tests for the TAG baseline protocol."""

import pytest

from repro.aggregation.functions import CountAggregate, SumAggregate
from repro.aggregation.tag import TagProtocol
from repro.aggregation.tree import build_aggregation_tree
from repro.errors import AggregationError
from repro.net.stack import NetworkStack
from repro.sim.kernel import Simulator
from tests.conftest import make_line_deployment


def make_rig(deployment, seed=1):
    sim = Simulator(seed=seed)
    stack = NetworkStack(sim, deployment)
    tree = build_aggregation_tree(stack)
    return stack, tree


class TestLineTopology:
    def test_sum_collected_exactly_on_quiet_chain(self):
        stack, tree = make_rig(make_line_deployment(5))
        readings = {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}
        result = TagProtocol(stack, tree, SumAggregate()).run(readings)
        assert result.value == pytest.approx(10.0)
        assert result.accuracy == pytest.approx(1.0)
        assert result.contributors == 4

    def test_count_aggregation(self):
        stack, tree = make_rig(make_line_deployment(4))
        readings = {1: 9.0, 2: 9.0, 3: 9.0}
        result = TagProtocol(stack, tree, CountAggregate()).run(readings)
        assert result.value == 3.0

    def test_empty_readings_rejected(self):
        stack, tree = make_rig(make_line_deployment(3))
        with pytest.raises(AggregationError):
            TagProtocol(stack, tree, SumAggregate()).run({})


class TestDenseNetwork:
    def test_high_accuracy_in_dense_network(self, small_deployment):
        stack, tree = make_rig(small_deployment, seed=5)
        readings = {i: 10.0 for i in range(1, small_deployment.num_nodes)}
        result = TagProtocol(stack, tree, SumAggregate()).run(readings)
        assert result.accuracy > 0.85

    def test_contributors_bounded_by_eligible(self, small_deployment):
        stack, tree = make_rig(small_deployment, seed=6)
        readings = {i: 1.0 for i in range(1, small_deployment.num_nodes)}
        result = TagProtocol(stack, tree, SumAggregate()).run(readings)
        assert 0 < result.contributors <= result.eligible

    def test_orphans_cannot_contribute(self, small_deployment):
        stack, tree = make_rig(small_deployment, seed=7)
        readings = {i: 1.0 for i in range(1, small_deployment.num_nodes)}
        orphans = set(range(small_deployment.num_nodes)) - set(tree.parents)
        result = TagProtocol(stack, tree, SumAggregate()).run(readings)
        assert result.contributors <= len(readings) - len(orphans)

    def test_message_count_is_two_per_node_ish(self, small_deployment):
        # TAG's defining property: ~1 hello + ~1 partial per node.
        stack, tree = make_rig(small_deployment, seed=8)
        readings = {i: 1.0 for i in range(1, small_deployment.num_nodes)}
        TagProtocol(stack, tree, SumAggregate()).run(readings)
        per_node = stack.counters.total_messages / small_deployment.num_nodes
        assert 1.5 <= per_node <= 2.1

    def test_duration_matches_epoch_depth(self, small_deployment):
        stack, tree = make_rig(small_deployment, seed=9)
        readings = {i: 1.0 for i in range(1, small_deployment.num_nodes)}
        result = TagProtocol(stack, tree, SumAggregate()).run(readings)
        assert result.duration_s == pytest.approx(
            (tree.max_depth() + 2) * 0.5, abs=0.01
        )
