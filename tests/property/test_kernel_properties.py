"""Property-based tests for kernel ordering and packet sizing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import HEADER_BYTES, Packet, payload_size
from repro.sim.kernel import Simulator


class TestKernelOrdering:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=50)
    def test_firing_order_is_sorted_by_time(self, delays):
        sim = Simulator(seed=0)
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["schedule", "schedule_at", "schedule_batch", "schedule_callback"]
                ),
                st.one_of(
                    st.sampled_from([0.0, 1.0, 2.5]),
                    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                ),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=50)
    def test_mixed_entry_points_fire_in_time_then_call_order(self, calls):
        sim = Simulator(seed=0)
        sim.run(until=1.0)
        fired = []
        for index, (entry_point, delay) in enumerate(calls):
            when = sim.now + delay
            if entry_point == "schedule_at":
                sim.schedule_at(when, fired.append, ((when, index),))
            else:
                getattr(sim, entry_point)(delay, fired.append, ((when, index),))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(calls)

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    @settings(max_examples=50)
    def test_clock_never_goes_backwards(self, until):
        sim = Simulator(seed=0)
        sim.schedule(until / 2 if until > 0 else 0.0, lambda: None)
        sim.run(until=until)
        assert sim.now == until


json_like = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**62), max_value=2**62),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=20),
        st.binary(max_size=20),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=5), children, max_size=5),
    ),
    max_leaves=20,
)


class TestPacketSizing:
    @given(json_like)
    @settings(max_examples=100)
    def test_payload_size_non_negative(self, payload):
        assert payload_size(payload) >= 0

    @given(st.dictionaries(st.text(min_size=1, max_size=8), json_like, max_size=5))
    @settings(max_examples=100)
    def test_packet_size_at_least_header(self, payload):
        packet = Packet(src=0, dst=1, kind="x", payload=payload)
        assert packet.size_bytes >= HEADER_BYTES

    @given(json_like, json_like)
    @settings(max_examples=60)
    def test_size_additive_over_lists(self, a, b):
        assert payload_size([a, b]) == payload_size(a) + payload_size(b)
