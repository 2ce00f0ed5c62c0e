"""Unit tests for the assembled network stack."""

import pytest

from repro.errors import SimulationError
from repro.net.stack import NetworkStack
from repro.sim.kernel import Simulator
from tests.conftest import make_line_deployment
from tests.counter_reads import node_rx_bytes, node_tx_bytes


@pytest.fixture
def line_stack():
    sim = Simulator(seed=7)
    return NetworkStack(sim, make_line_deployment(5))


class TestWiring:
    def test_adjacency_matches_geometry(self, line_stack):
        assert line_stack.neighbors(0) == (1,)
        assert sorted(line_stack.neighbors(2)) == [1, 3]
        assert line_stack.degree(2) == 2

    def test_one_node_and_mac_per_sensor(self, line_stack):
        assert len(line_stack.node_ids()) == 5
        assert len(line_stack.macs) == 5

    def test_radio_range_mismatch_rejected(self):
        from repro.net.radio import RadioParams

        sim = Simulator()
        with pytest.raises(SimulationError):
            NetworkStack(
                sim, make_line_deployment(3), radio=RadioParams(range_m=10.0)
            )


class TestMessaging:
    def test_unicast_delivery_and_counting(self, line_stack):
        got = []
        line_stack.register_handler(1, "x", lambda _node, p: got.append(p))
        line_stack.send(0, 1, "x", {"v": 5})
        line_stack.sim.run()
        assert len(got) == 1
        assert line_stack.counters.total_messages == 1
        assert node_tx_bytes(line_stack.counters, 0) > 0
        assert node_rx_bytes(line_stack.counters, 1) > 0

    def test_broadcast_reaches_neighbors_only(self, line_stack):
        got = {n: [] for n in range(5)}
        for n in range(5):
            line_stack.register_handler(n, "x", lambda node, p: got[node].append(p))
        line_stack.broadcast(2, "x")
        line_stack.sim.run()
        assert len(got[1]) == 1 and len(got[3]) == 1
        assert got[0] == [] and got[4] == []

    def test_overhearing_via_stack(self, line_stack):
        heard = []
        line_stack.register_overhear(2, lambda _node, p: heard.append(p))
        line_stack.send(1, 0, "x")  # addressed away from 2, audible at 2
        line_stack.sim.run()
        assert len(heard) == 1

    def test_unknown_source_rejected(self, line_stack):
        with pytest.raises(SimulationError):
            line_stack.send(99, 0, "x")

    def test_energy_accounted_for_tx_and_rx(self, line_stack):
        line_stack.send(0, 1, "x", {"v": 1})
        line_stack.sim.run()
        assert line_stack.energy.spent(0) > 0  # transmit
        assert line_stack.energy.spent(1) > 0  # receive

    def test_reset_accounting(self, line_stack):
        line_stack.send(0, 1, "x")
        line_stack.sim.run()
        line_stack.reset_accounting()
        assert line_stack.counters.total_messages == 0
        assert line_stack.energy.report().total_j == 0.0


class TestMultiHopScenario:
    def test_relay_chain(self, line_stack):
        """A mini routing protocol over the stack: each node forwards to
        the next until the end of the chain."""
        arrived = []

        def forward(node_id, packet):
            if node_id == 4:
                arrived.append(packet.payload["hops"])
            else:
                line_stack.send(
                    node_id,
                    node_id + 1,
                    "relay",
                    {"hops": packet.payload["hops"] + 1},
                )

        for n in range(1, 5):
            line_stack.register_handler(n, "relay", forward)
        line_stack.send(0, 1, "relay", {"hops": 1})
        line_stack.sim.run()
        assert arrived == [4]
