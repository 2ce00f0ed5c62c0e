"""Regression tests for dead-node accounting.

Three substrate bugs used to inflate the paper's headline measurements:

1. ``NetworkStack._transmit`` counted TX bytes/energy for crashed
   senders whose frames the medium silently dropped (lifetime F10 and
   overhead-under-failure rows overcounted);
2. ``WirelessMedium._finish_reception`` counted collisions and ambient
   losses observed at *dead* receivers into ``MediumStats``;
3. ``Simulator`` never clock-bound its trace, so any trace not routed
   through ``IcpdaProtocol`` stamped every record ``time=0.0``.

Each class below pins one fix; ``TestSeededTraceStability`` pins the
constraint the medium fix had to preserve — the ambient-loss RNG draw
still happens at dead receivers, so seeded runs stay byte-identical for
every live node.
"""

from repro.net.packet import BROADCAST, Packet
from repro.net.radio import RadioParams
from repro.net.stack import NetworkStack
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog
from tests.conftest import make_line_deployment
from tests.counter_reads import node_tx_bytes, node_tx_messages
from tests.net.sweep_medium import zero_distance_medium
from tests.trace_reads import count, last

TRIANGLE = {0: [1, 2], 1: [0, 2], 2: [0, 1]}


class TestDeadSenderAccounting:
    """A node crash-stopped at t=T accrues zero TX bytes/energy after T."""

    def test_tx_bytes_and_energy_freeze_at_crash(self):
        sim = Simulator(seed=3)
        stack = NetworkStack(sim, make_line_deployment(3))
        stack.send(1, 0, "x", size_bytes=60)
        sim.run()
        bytes_before = node_tx_bytes(stack.counters, 1)
        energy_before = stack.energy.spent(1)
        assert bytes_before == 60
        assert energy_before > 0.0

        crash_at = sim.now + 1.0
        sim.schedule(1.0, lambda: stack.fail_node(1))
        sim.run(until=crash_at + 0.5)
        for _ in range(5):
            stack.send(1, 0, "x", size_bytes=60)
        sim.run()
        assert sim.now > crash_at
        assert node_tx_bytes(stack.counters, 1) == bytes_before
        assert node_tx_messages(stack.counters, 1) == 1
        assert stack.energy.spent(1) == energy_before

    def test_dead_sender_mac_never_engaged(self):
        sim = Simulator(seed=3)
        stack = NetworkStack(sim, make_line_deployment(3))
        stack.fail_node(0)
        stack.send(0, 1, "x")
        sim.run()
        assert stack.macs[0].stats.enqueued == 0
        assert stack.medium.stats.transmissions == 0

    def test_dead_sender_emits_trace_not_counters(self):
        sim = Simulator(seed=3, trace=TraceLog(enabled=True))
        stack = NetworkStack(sim, make_line_deployment(3))
        stack.fail_node(0)
        stack.broadcast(0, "hello")
        sim.run()
        assert count(sim.trace, "stack.dead_tx") == 1
        assert stack.counters.total_messages == 0

    def test_alive_nodes_still_counted(self):
        sim = Simulator(seed=3)
        stack = NetworkStack(sim, make_line_deployment(3))
        stack.fail_node(0)
        stack.send(1, 2, "x", size_bytes=30)
        sim.run()
        assert node_tx_bytes(stack.counters, 1) == 30
        assert stack.energy.spent(1) > 0.0


class TestDeadReceiverStats:
    """Losses observed at dead receivers stay out of MediumStats."""

    def test_ambient_loss_at_dead_receiver_not_counted(self):
        # ambient_loss=0.999: every clean reception fades. With both
        # neighbours of the sender dead, the stats must record nothing.
        sim = Simulator(seed=5)
        medium, _ = zero_distance_medium(sim, TRIANGLE, RadioParams(ambient_loss=0.999))
        medium.kill_node(1)
        medium.kill_node(2)
        medium.transmit(0, Packet(src=0, dst=BROADCAST, kind="x"))
        sim.run()
        assert medium.stats.ambient_losses == 0

    def test_collision_at_dead_receiver_not_counted(self):
        # 0 and 1 transmit simultaneously; their frames collide at 2.
        # With 2 dead, no collision may be recorded (the senders' own
        # half-duplex losses at each other still are).
        sim = Simulator(seed=5)
        medium, _ = zero_distance_medium(sim, TRIANGLE, RadioParams())
        medium.kill_node(2)
        medium.transmit(0, Packet(src=0, dst=BROADCAST, kind="a"))
        medium.transmit(1, Packet(src=1, dst=BROADCAST, kind="b"))
        sim.run()
        assert medium.stats.collisions == 0

    def test_alive_receiver_losses_still_counted(self):
        sim = Simulator(seed=5)
        medium, _ = zero_distance_medium(sim, TRIANGLE, RadioParams(ambient_loss=0.999))
        medium.kill_node(1)
        medium.transmit(0, Packet(src=0, dst=BROADCAST, kind="x"))
        sim.run()
        # Node 2 is alive: exactly its loss is counted, not node 1's.
        assert medium.stats.ambient_losses == 1


class TestSeededTraceStability:
    """The dead-receiver fix keeps the ambient-loss RNG draw, so what
    happens at every *live* node is byte-identical with and without the
    dead node in a same-seed run."""

    @staticmethod
    def _deliveries_at_node2(kill_node_1: bool, seed: int = 11):
        sim = Simulator(seed=seed)
        medium, rx = zero_distance_medium(sim, TRIANGLE, RadioParams(ambient_loss=0.5))
        at_two = []
        rx.attach(2, at_two.append)
        if kill_node_1:
            medium.kill_node(1)
        for index in range(20):
            sim.schedule(
                index * 0.01,
                lambda i=index: medium.transmit(
                    0, Packet(src=0, dst=BROADCAST, kind=f"k{i}")
                ),
            )
        sim.run()
        return [packet.kind for packet in at_two]

    def test_live_node_fate_unchanged_by_dead_neighbour(self):
        assert self._deliveries_at_node2(False) == self._deliveries_at_node2(True)


class TestSimulatorClockBinding:
    """The kernel binds its trace clock at construction — records carry
    virtual time without any manual ``bind_clock`` call."""

    def test_default_constructed_trace_is_clock_bound(self):
        sim = Simulator(seed=0, trace=TraceLog(enabled=True))
        sim.schedule(5.0, lambda: sim.trace.emit("tick", "at five"))
        sim.run()
        assert last(sim.trace, "tick").time == 5.0

    def test_prebuilt_trace_gets_bound_too(self):
        prebuilt = TraceLog(enabled=True)
        sim = Simulator(seed=0, trace=prebuilt)
        sim.schedule(2.5, lambda: prebuilt.emit("tick", ""))
        sim.run()
        assert last(prebuilt, "tick").time == 2.5

    def test_medium_kill_record_carries_time(self):
        sim = Simulator(seed=0, trace=TraceLog(enabled=True))
        stack = NetworkStack(sim, make_line_deployment(3))
        sim.schedule(3.0, lambda: stack.fail_node(1))
        sim.run()
        assert last(sim.trace, "medium.kill").time == 3.0
