"""Property-based tests over whole protocol runs.

Each hypothesis example deploys a small random network and runs real
protocol phases, then checks invariants that must hold for *any*
topology, seed, and configuration in range:

* the clustering is a partition with bounded cluster sizes;
* completed cluster sums are exactly the participants' sums;
* counters satisfy conservation (received <= transmitted * neighbors);
* accepted rounds never exceed the true aggregate (positive readings).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.topology.deploy import uniform_deployment
from tests.counter_reads import node_rx_bytes

run_settings = settings(max_examples=10, deadline=None)


@st.composite
def scenarios(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_nodes = draw(st.integers(min_value=40, max_value=90))
    k_min = draw(st.integers(min_value=2, max_value=4))
    k_max = draw(st.integers(min_value=k_min, max_value=k_min + 3))
    p_c = draw(st.sampled_from([0.2, 0.25, 0.33]))
    return seed, num_nodes, IcpdaConfig(k_min=k_min, k_max=k_max, p_c=p_c)


def run_scenario(seed, num_nodes, config):
    deployment = uniform_deployment(
        num_nodes,
        field_size=220.0,
        radio_range=50.0,
        rng=np.random.default_rng(seed),
    )
    readings = {i: 10.0 + (i % 9) for i in range(1, num_nodes)}
    protocol = IcpdaProtocol(deployment, config, seed=seed)
    protocol.setup()
    result = protocol.run_round(readings)
    return result, protocol, readings


class TestRoundInvariants:
    @given(scenarios())
    # A wave-3 self-elected head that a second re-join timer then joined
    # to another head: node 11 in two active clusters, node 43 in two
    # inactive ones.
    @example((6765, 55, IcpdaConfig(p_c=0.25, k_min=4, k_max=4)))
    @example((2255, 64, IcpdaConfig(p_c=0.33, k_min=4, k_max=4)))
    @run_settings
    def test_clustering_is_bounded_partition(self, scenario):
        seed, num_nodes, config = scenario
        _, protocol, _ = run_scenario(seed, num_nodes, config)
        clustering = protocol.last_clustering
        seen = set()
        for cluster in clustering.clusters.values():
            assert cluster.size <= config.k_max
            for member in cluster.members:
                assert member not in seen
                seen.add(member)

    @given(scenarios())
    @run_settings
    def test_completed_sums_exact(self, scenario):
        seed, num_nodes, config = scenario
        _, protocol, readings = run_scenario(seed, num_nodes, config)
        aggregate = protocol.aggregate
        for state in protocol.last_exchange.states.values():
            if not state.completed:
                continue
            expected = sum(
                aggregate.components(readings[m])[0]
                for m in state.participants
                if m in readings
            )
            assert state.cluster_sums[0] == expected

    @given(scenarios())
    @run_settings
    def test_accepted_value_bounded_by_truth(self, scenario):
        seed, num_nodes, config = scenario
        result, _, readings = run_scenario(seed, num_nodes, config)
        if result.verdict.accepted:
            assert 0.0 <= result.value <= sum(readings.values()) + 1e-6
            assert 0 <= result.contributors <= len(readings)

    @given(scenarios())
    @run_settings
    def test_counter_conservation(self, scenario):
        seed, num_nodes, config = scenario
        _, protocol, _ = run_scenario(seed, num_nodes, config)
        counters = protocol.stack.counters
        medium = protocol.stack.medium.stats
        # Every counted frame went on the air exactly once.
        assert counters.total_messages == medium.transmissions
        # Deliveries cannot exceed transmissions times the max degree.
        max_degree = max(
            protocol.stack.degree(n) for n in protocol.stack.node_ids()
        )
        assert medium.deliveries <= medium.transmissions * max_degree
        # Addressed receptions are a subset of deliveries.
        total_rx = sum(
            node_rx_bytes(counters, n) > 0 for n in protocol.stack.node_ids()
        )
        assert total_rx <= num_nodes
