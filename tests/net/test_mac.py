"""Unit tests for the CSMA MAC."""

import pytest

from repro.errors import SimulationError
from repro.net.mac import CsmaMac, MacParams
from repro.net.packet import Packet
from repro.net.radio import RadioParams
from repro.sim.kernel import Simulator
from tests.net.sweep_medium import zero_distance_medium

TRIANGLE = {0: [1, 2], 1: [0, 2], 2: [0, 1]}


def make_rig(params=None, seed=0):
    sim = Simulator(seed=seed)
    medium, rx = zero_distance_medium(sim, TRIANGLE, RadioParams())
    macs = {n: CsmaMac(sim, medium, n, params) for n in TRIANGLE}
    return sim, rx, macs


class TestBasicSend:
    def test_frame_transmitted_after_jitter(self):
        sim, rx, macs = make_rig()
        got = []
        rx.attach(1, got.append)
        macs[0].send(Packet(src=0, dst=1, kind="x"))
        sim.run()
        assert len(got) == 1
        assert macs[0].stats.sent == 1

    def test_wrong_source_rejected(self):
        _, _, macs = make_rig()
        with pytest.raises(SimulationError):
            macs[0].send(Packet(src=1, dst=2, kind="x"))

    def test_queue_drains_in_order(self):
        sim, rx, macs = make_rig()
        got = []
        rx.attach(1, lambda p: got.append(p.payload["i"]))
        for i in range(5):
            macs[0].send(Packet(src=0, dst=1, kind="x", payload={"i": i}))
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_queue_length_tracked(self):
        _, _, macs = make_rig()
        for i in range(3):
            macs[0].send(Packet(src=0, dst=1, kind="x", payload={"i": i}))
        assert macs[0].queue_length == 3


class TestBackoff:
    def test_busy_channel_defers_transmission(self):
        # Two nodes enqueue at once; CSMA should serialize them so the
        # common neighbor receives both.
        sim, rx, macs = make_rig(seed=5)
        got = []
        rx.attach(2, got.append)
        macs[0].send(Packet(src=0, dst=2, kind="a", size_bytes=200))
        macs[1].send(Packet(src=1, dst=2, kind="b", size_bytes=200))
        sim.run()
        assert len(got) == 2

    def test_busy_senses_counted(self):
        # Force contention with many concurrent senders.
        sim, rx, macs = make_rig(seed=3)
        for i in range(5):
            macs[0].send(Packet(src=0, dst=1, kind="x", payload={"i": i}, size_bytes=500))
            macs[1].send(Packet(src=1, dst=0, kind="y", payload={"i": i}, size_bytes=500))
        sim.run()
        total_busy = macs[0].stats.busy_senses + macs[1].stats.busy_senses
        assert total_busy > 0

    def test_drop_after_max_attempts(self):
        # A pathological MAC that gives up instantly under contention.
        params = MacParams(max_attempts=1, initial_jitter_s=0.0)
        sim = Simulator(seed=1)
        medium, _ = zero_distance_medium(sim, TRIANGLE, RadioParams())
        mac0 = CsmaMac(sim, medium, 0, params)
        mac1 = CsmaMac(sim, medium, 1, params)
        # Node 1 occupies the channel with a huge frame; node 0 senses
        # busy once and drops.
        mac1.send(Packet(src=1, dst=2, kind="big", size_bytes=10_000))
        sim.schedule(
            0.001, lambda: mac0.send(Packet(src=0, dst=2, kind="x"))
        )
        sim.run()
        assert mac0.stats.dropped == 1
        assert mac0.queue_length == 0
        assert mac1.stats.dropped == 0


class TestMacParams:
    def test_invalid_params_rejected(self):
        with pytest.raises(SimulationError):
            MacParams(initial_jitter_s=-1.0)
        with pytest.raises(SimulationError):
            MacParams(backoff_min_s=0.0)
        with pytest.raises(SimulationError):
            MacParams(backoff_min_s=0.5, backoff_max_s=0.1)
        with pytest.raises(SimulationError):
            MacParams(max_attempts=0)
