"""Unit tests for the shared medium: propagation, collisions,
carrier sense, overhearing."""

import pytest

from repro.errors import SimulationError
from repro.net.packet import BROADCAST, Packet
from repro.net.radio import RadioParams
from repro.sim.kernel import Simulator
from tests.net.sweep_medium import zero_distance_medium
from tests.trace_reads import last


def make_medium(adjacency, seed=0, **radio_kwargs):
    sim = Simulator(seed=seed)
    medium, rx = zero_distance_medium(sim, adjacency, RadioParams(**radio_kwargs))
    return sim, medium, rx


LINE3 = {0: [1], 1: [0, 2], 2: [1]}  # 0-1-2 chain
TRIANGLE = {0: [1, 2], 1: [0, 2], 2: [0, 1]}


class TestDelivery:
    def test_unicast_reaches_neighbor(self):
        sim, medium, rx = make_medium(LINE3)
        got = []
        rx.attach(1, got.append)
        medium.transmit(0, Packet(src=0, dst=1, kind="x"))
        sim.run()
        assert len(got) == 1
        assert got[0].src == 0

    def test_frame_not_heard_beyond_range(self):
        sim, medium, rx = make_medium(LINE3)
        got = []
        rx.attach(2, got.append)
        medium.transmit(0, Packet(src=0, dst=2, kind="x"))
        sim.run()
        assert got == []  # 2 is two hops away

    def test_all_neighbors_overhear_unicast(self):
        sim, medium, rx = make_medium(TRIANGLE)
        got = {1: [], 2: []}
        rx.attach(1, got[1].append)
        rx.attach(2, got[2].append)
        medium.transmit(0, Packet(src=0, dst=1, kind="x"))
        sim.run()
        assert len(got[1]) == 1
        assert len(got[2]) == 1  # promiscuous delivery to the medium

    def test_broadcast_reaches_all_neighbors(self):
        sim, medium, rx = make_medium(TRIANGLE)
        got = []
        rx.attach(1, got.append)
        rx.attach(2, got.append)
        medium.transmit(0, Packet(src=0, dst=BROADCAST, kind="x"))
        sim.run()
        assert len(got) == 2

    def test_unknown_sender_rejected(self):
        _, medium, _ = make_medium(LINE3)
        with pytest.raises(SimulationError):
            medium.transmit(99, Packet(src=99, dst=0, kind="x"))



class TestCollisions:
    def test_overlapping_frames_collide_at_common_receiver(self):
        sim, medium, rx = make_medium(TRIANGLE)
        got = []
        rx.attach(2, got.append)
        # 0 and 1 transmit simultaneously; both audible at 2.
        medium.transmit(0, Packet(src=0, dst=2, kind="a"))
        medium.transmit(1, Packet(src=1, dst=2, kind="b"))
        sim.run()
        assert got == []
        assert medium.stats.collisions >= 2

    def test_non_overlapping_frames_both_arrive(self):
        sim, medium, rx = make_medium(TRIANGLE)
        got = []
        rx.attach(2, got.append)
        medium.transmit(0, Packet(src=0, dst=2, kind="a"))
        airtime = medium.radio.airtime(Packet(src=1, dst=2, kind="b"))
        sim.schedule(
            airtime * 2,
            lambda: medium.transmit(1, Packet(src=1, dst=2, kind="b")),
        )
        sim.run()
        assert len(got) == 2

    def test_hidden_terminal_collides_at_middle(self):
        # 0 and 2 cannot hear each other but both reach 1.
        sim, medium, rx = make_medium(LINE3)
        got = []
        rx.attach(1, got.append)
        medium.transmit(0, Packet(src=0, dst=1, kind="a"))
        medium.transmit(2, Packet(src=2, dst=1, kind="b"))
        sim.run()
        assert got == []

    def test_half_duplex_sender_misses_incoming(self):
        sim, medium, rx = make_medium(TRIANGLE)
        got = []
        rx.attach(0, got.append)
        medium.transmit(0, Packet(src=0, dst=1, kind="a"))
        medium.transmit(1, Packet(src=1, dst=0, kind="b"))
        sim.run()
        assert got == []  # 0 was transmitting while 1's frame arrived
        assert medium.stats.half_duplex_losses >= 1


class TestCarrierSense:
    def test_idle_initially(self):
        _, medium, _ = make_medium(LINE3)
        assert not medium.carrier_busy(0)

    def test_busy_during_neighbor_transmission(self):
        sim, medium, rx = make_medium(LINE3)
        states = []
        medium.transmit(0, Packet(src=0, dst=1, kind="x"))
        sim.schedule(1e-6, lambda: states.append(medium.carrier_busy(1)))
        sim.run()
        assert states == [True]
        assert not medium.carrier_busy(1)  # after completion

    def test_own_transmission_is_busy(self):
        sim, medium, rx = make_medium(LINE3)
        states = []
        medium.transmit(0, Packet(src=0, dst=1, kind="x"))
        sim.schedule(1e-6, lambda: states.append(medium.carrier_busy(0)))
        sim.run()
        assert states == [True]

    def test_not_busy_two_hops_away(self):
        sim, medium, rx = make_medium(LINE3)
        states = []
        medium.transmit(0, Packet(src=0, dst=1, kind="x"))
        sim.schedule(1e-6, lambda: states.append(medium.carrier_busy(2)))
        sim.run()
        assert states == [False]


class TestLossAttribution:
    """The corruption *cause* is recorded when the corruption happens,
    not inferred from channel state at frame completion."""

    def test_collision_not_misread_as_half_duplex(self):
        # Hidden terminals 0 and 2 collide at 1; later 1 starts its own
        # (directed-to-2-only) transmission that is still in the air when
        # the collided frames complete. Completion-time inference would
        # blame the receiver's radio (half duplex); the real cause is the
        # third-party overlap.
        adjacency = {0: [1], 1: [2], 2: [1]}
        sim = Simulator(seed=0)
        medium, rx = zero_distance_medium(sim, adjacency, RadioParams(turnaround_s=0.0))
        long_a = Packet(src=0, dst=1, kind="a", size_bytes=1000)
        short_b = Packet(src=2, dst=1, kind="b", size_bytes=100)
        airtime_a = medium.radio.airtime(long_a)
        got = []
        rx.attach(2, got.append)
        medium.transmit(0, long_a)
        medium.transmit(2, short_b)
        # 1 keys up after b ended but before a completes.
        sim.schedule(
            airtime_a * 0.9,
            lambda: medium.transmit(1, Packet(src=1, dst=2, kind="c", size_bytes=20)),
        )
        sim.run()
        assert medium.stats.collisions == 2  # a and b, both corrupted at 1
        assert medium.stats.half_duplex_losses == 0
        assert len(got) == 1  # 1's own frame arrives cleanly at 2
        assert got[0].kind == "c"

    def test_half_duplex_attributed_to_busy_radio(self):
        # 1 is mid-transmission when 0's frame starts: the loss is the
        # receiver's own radio, not an overlap.
        adjacency = {0: [1], 1: [0], 9: [0]}
        sim = Simulator(seed=0)
        medium, rx = zero_distance_medium(sim, adjacency, RadioParams(turnaround_s=0.0))
        medium.transmit(1, Packet(src=1, dst=0, kind="x", size_bytes=500))
        sim.schedule(
            1e-4,
            lambda: medium.transmit(0, Packet(src=0, dst=1, kind="y", size_bytes=100)),
        )
        sim.run()
        # y dies at busy 1; x dies at 0, which keyed up mid-reception.
        assert medium.stats.half_duplex_losses == 2
        assert medium.stats.collisions == 0

    def test_mid_reception_keyup_counts_as_half_duplex(self):
        # 1 starts transmitting while 0's clean frame is still arriving:
        # the ongoing reception dies to 1's own radio.
        sim = Simulator(seed=0)
        medium, rx = zero_distance_medium(sim, LINE3, RadioParams(turnaround_s=0.0))
        medium.transmit(0, Packet(src=0, dst=1, kind="a", size_bytes=500))
        sim.schedule(
            1e-4,
            lambda: medium.transmit(1, Packet(src=1, dst=2, kind="b", size_bytes=20)),
        )
        sim.run()
        # a dies at 1 (keyed up mid-reception); b dies at 0 (still sending a).
        assert medium.stats.half_duplex_losses == 2
        assert medium.stats.collisions == 0


class TestDeterminism:
    """Two same-seed runs in one process must be indistinguishable —
    a regression guard for cross-simulator state leaks (the tx counter
    used to be module-level and bled across instances)."""

    @staticmethod
    def _run_once(seed=7):
        from repro.sim.trace import TraceLog

        sim = Simulator(seed=seed, trace=TraceLog(enabled=True))
        sim.trace.bind_clock(lambda: sim.now)
        medium, rx = zero_distance_medium(sim, TRIANGLE, RadioParams(ambient_loss=0.3))
        delivered = []
        for node in TRIANGLE:
            rx.attach(node, delivered.append)
        for index in range(12):
            sender = index % 3
            sim.schedule(
                index * 0.0005,
                lambda s=sender, i=index: medium.transmit(
                    s, Packet(src=s, dst=BROADCAST, kind=f"k{i}")
                ),
            )
        sim.run()
        trace = [(r.time, r.category, r.message, tuple(sorted(r.fields.items())))
                 for r in sim.trace]
        return trace, medium.stats.snapshot(), len(delivered)

    def test_back_to_back_runs_identical(self):
        first = self._run_once()
        second = self._run_once()
        assert first == second

    def test_tx_ids_restart_per_medium(self):
        sim, medium, rx = make_medium(LINE3)
        medium.transmit(0, Packet(src=0, dst=1, kind="x"))
        sim.run()
        sim2, medium2, _ = make_medium(LINE3)
        sim2.trace.enabled = True
        sim2.trace.bind_clock(lambda: sim2.now)
        medium2.transmit(0, Packet(src=0, dst=1, kind="x"))
        sim2.run()
        record = last(sim2.trace, "medium.tx")
        assert record is not None
        assert record.fields["tx"] == 0


class TestAmbientLoss:
    def test_loss_probability_one_drops_everything(self):
        sim, medium, rx = make_medium(LINE3, ambient_loss=0.999999)
        got = []
        rx.attach(1, got.append)
        for _ in range(20):
            medium.transmit(0, Packet(src=0, dst=1, kind="x"))
            sim.run()
        assert len(got) == 0 or medium.stats.ambient_losses > 0

    def test_stats_track_everything(self):
        sim, medium, rx = make_medium(LINE3)
        rx.attach(1, lambda p: None)
        medium.transmit(0, Packet(src=0, dst=1, kind="x"))
        sim.run()
        snap = medium.stats.snapshot()
        assert snap["transmissions"] == 1
        assert snap["deliveries"] == 1
