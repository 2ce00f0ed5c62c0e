"""Property-based conservation tests for the MAC layer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.mac import CsmaMac, MacParams
from repro.net.packet import Packet
from repro.net.radio import RadioParams
from repro.sim.kernel import Simulator
from tests.net.sweep_medium import zero_distance_medium

TRIANGLE = {0: [1, 2], 1: [0, 2], 2: [0, 1]}


@st.composite
def traffic_patterns(draw):
    seed = draw(st.integers(min_value=0, max_value=5000))
    frames = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),  # sender
                st.integers(min_value=20, max_value=400),  # size
                st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return seed, frames


class TestMacConservation:
    @given(traffic_patterns())
    @settings(max_examples=25, deadline=None)
    def test_enqueued_equals_sent_plus_dropped(self, pattern):
        """After quiescence every enqueued frame was either transmitted
        or explicitly dropped — none vanish, none duplicate."""
        seed, frames = pattern
        sim = Simulator(seed=seed)
        medium, _ = zero_distance_medium(sim, TRIANGLE, RadioParams())
        macs = {n: CsmaMac(sim, medium, n, MacParams()) for n in TRIANGLE}
        for sender, size, delay in frames:
            dst = (sender + 1) % 3
            sim.schedule(
                delay,
                lambda s=sender, d=dst, z=size: macs[s].send(
                    Packet(src=s, dst=d, kind="x", size_bytes=z)
                ),
            )
        sim.run()
        for node, mac in macs.items():
            assert mac.stats.enqueued == mac.stats.sent + mac.stats.dropped
            assert mac.queue_length == 0

    @given(traffic_patterns())
    @settings(max_examples=25, deadline=None)
    def test_medium_sees_exactly_the_sent_frames(self, pattern):
        seed, frames = pattern
        sim = Simulator(seed=seed)
        medium, _ = zero_distance_medium(sim, TRIANGLE, RadioParams())
        macs = {n: CsmaMac(sim, medium, n, MacParams()) for n in TRIANGLE}
        for sender, size, delay in frames:
            sim.schedule(
                delay,
                lambda s=sender, z=size: macs[s].send(
                    Packet(src=s, dst=(s + 1) % 3, kind="x", size_bytes=z)
                ),
            )
        sim.run()
        total_sent = sum(mac.stats.sent for mac in macs.values())
        assert medium.stats.transmissions == total_sent
