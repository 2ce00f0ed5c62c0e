"""Tests for the SMART-style slicing comparison scheme."""

import pytest

from repro.aggregation.functions import SumAggregate
from repro.aggregation.slicing import SlicingAggregation
from repro.aggregation.tree import build_aggregation_tree
from repro.crypto.keys import PairwiseKeyScheme
from repro.crypto.linksec import LinkSecurity
from repro.errors import AggregationError
from repro.net.stack import NetworkStack
from repro.sim.kernel import Simulator


def make_round(deployment, seed=9, num_slices=2):
    sim = Simulator(seed=seed)
    stack = NetworkStack(sim, deployment)
    tree = build_aggregation_tree(stack)
    protocol = SlicingAggregation(
        stack,
        tree,
        SumAggregate(),
        LinkSecurity(PairwiseKeyScheme()),
        num_slices=num_slices,
    )
    return protocol, stack


class TestCorrectness:
    def test_sum_preserved_when_all_slices_arrive(self, small_deployment):
        protocol, _ = make_round(small_deployment)
        readings = {i: 10.0 for i in range(1, small_deployment.num_nodes)}
        result = protocol.run(readings)
        if result.slices_delivered == result.slices_sent:
            # No slice lost: residual error is only TAG-level loss, so
            # the collected value is a subset-sum of readings.
            assert result.tag.value <= result.tag.true_value + 1e-6

    def test_accuracy_reasonable_in_dense_network(self, small_deployment):
        protocol, _ = make_round(small_deployment)
        readings = {
            i: 20.0 + (i % 5) for i in range(1, small_deployment.num_nodes)
        }
        result = protocol.run(readings)
        assert 0.7 < result.tag.accuracy < 1.3  # slice loss can overshoot

    def test_l1_degenerates_to_tag(self, small_deployment):
        """With one slice nothing is transmitted pre-TAG: results match
        plain TAG exactly."""
        from repro.aggregation.tag import TagProtocol

        readings = {i: 5.0 for i in range(1, small_deployment.num_nodes)}
        protocol, _ = make_round(small_deployment, seed=11, num_slices=1)
        sliced = protocol.run(readings)
        assert sliced.slices_sent == 0

        sim = Simulator(seed=11)
        stack = NetworkStack(sim, small_deployment)
        tree = build_aggregation_tree(stack)
        plain = TagProtocol(stack, tree, SumAggregate()).run(readings)
        assert sliced.tag.contributors == plain.contributors

    def test_empty_readings_rejected(self, small_deployment):
        protocol, _ = make_round(small_deployment)
        with pytest.raises(AggregationError):
            protocol.run({})

    def test_invalid_num_slices_rejected(self, small_deployment):
        with pytest.raises(AggregationError):
            make_round(small_deployment, num_slices=0)


class TestPrivacyStructure:
    def test_slices_are_encrypted(self, small_deployment):
        from repro.crypto.linksec import Ciphertext

        protocol, stack = make_round(small_deployment)
        captured = []
        for node in stack.node_ids():
            stack.register_overhear(
                node,
                lambda _node, p: captured.append(p) if p.kind == "slice" else None,
            )
        readings = {i: 10.0 for i in range(1, small_deployment.num_nodes)}
        protocol.run(readings)
        assert captured
        for packet in captured[:20]:
            assert isinstance(packet.payload["ct"], Ciphertext)

    def test_slice_log_feeds_eavesdrop_analysis(self, small_deployment):
        from repro.attacks.eavesdrop import EavesdropAnalysis
        from repro.crypto.adversary_keys import LinkBreakModel

        protocol, _ = make_round(small_deployment)
        readings = {i: 10.0 for i in range(1, small_deployment.num_nodes)}
        result = protocol.run(readings)
        stats, _ = EavesdropAnalysis(result, LinkBreakModel(0.0)).run()
        assert stats.disclosed == 0
        stats_all, _ = EavesdropAnalysis(result, LinkBreakModel(1.0)).run()
        assert stats_all.probability == 1.0

    def test_overhead_grows_with_l(self, small_deployment):
        readings = {i: 10.0 for i in range(1, small_deployment.num_nodes)}
        byte_counts = []
        for num_slices in (2, 3):
            protocol, stack = make_round(
                small_deployment, seed=13, num_slices=num_slices
            )
            protocol.run(readings)
            byte_counts.append(stack.counters.total_bytes)
        assert byte_counts[1] > byte_counts[0]
