"""The delivery sweep: one kernel entry per frame, exact per-receiver order.

Node 0 broadcasts to three receivers. Nodes 1 and 2 sit at the same
distance, so their copies arrive at one instant and are ordered by the
sequence numbers drawn for them in adjacency order; node 3 is farther
away and hears the frame later. Each test checks the sweep against what
one kernel event per receiver would do.
"""

import numpy as np
import pytest

from repro.net.radio import RadioParams
from repro.net.stack import NetworkStack
from repro.sim.kernel import Simulator
from repro.topology.deploy import Deployment
from tests.counter_reads import node_rx_messages

POSITIONS = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [30.0, 0.0]]
RECEIVERS = (1, 2, 3)


def make_stack(radio=None, positions=POSITIONS):
    deployment = Deployment(
        positions=np.array(positions), field_size=100.0, radio_range=50.0
    )
    return NetworkStack(Simulator(seed=5), deployment, radio=radio)


def record_arrivals(stack, log, receivers=RECEIVERS):
    for node in receivers:
        stack.register_handler(
            node, "x", lambda node, _p: log.append((node, stack.sim.now))
        )


def arrival_times(radio=None):
    """Receiver -> arrival time of one broadcast from node 0 (seeded)."""
    stack = make_stack(radio)
    log = []
    record_arrivals(stack, log)
    stack.broadcast(0, "x")
    stack.sim.run()
    return dict(log)


class TestSweepOrder:
    def test_same_distance_receivers_share_an_instant(self):
        times = arrival_times()
        assert times[1] == times[2] < times[3]

    def test_timer_between_two_arrivals_fires_between_them(self):
        times = arrival_times()
        midpoint = (times[2] + times[3]) / 2
        assert times[2] < midpoint < times[3]
        stack = make_stack()
        log = []
        record_arrivals(stack, log)
        stack.sim.schedule_at(midpoint, lambda: log.append(("timer", stack.sim.now)))
        stack.broadcast(0, "x")
        stack.sim.run()
        assert log == [
            (1, times[1]),
            (2, times[2]),
            ("timer", midpoint),
            (3, times[3]),
        ]

    def test_handler_zero_delay_event_fires_after_same_instant_deliveries(self):
        stack = make_stack()
        log = []
        record_arrivals(stack, log)
        stack.register_handler(
            1,
            "x",
            lambda node, _p: stack.sim.schedule(0.0, log.append, (("timer", node),)),
        )
        stack.broadcast(0, "x")
        stack.sim.run()
        assert [entry[0] for entry in log] == [2, "timer", 3]

    def test_run_until_splitting_a_frame_resumes_on_the_next_run(self):
        times = arrival_times()
        stack = make_stack()
        log = []
        record_arrivals(stack, log)
        stack.broadcast(0, "x")
        stack.sim.run(until=(times[2] + times[3]) / 2)
        assert [node for node, _ in log] == [1, 2]
        fired = stack.sim.stats.fired
        stack.sim.run()
        assert log[2] == (3, times[3])
        assert stack.sim.stats.fired == fired + 1

    def test_raising_handler_leaves_the_rest_pending(self):
        stack = make_stack()
        log = []
        record_arrivals(stack, log)

        def boom(node, _packet):
            raise RuntimeError(f"handler at {node}")

        stack.register_handler(1, "x", boom)
        stack.broadcast(0, "x")
        with pytest.raises(RuntimeError):
            stack.sim.run()
        assert log == []
        assert stack.sim.discard_pending() == 2
        assert stack.sim.stats.cancelled == 2
        stack.sim.run()
        assert log == []

    def test_raising_handler_then_rerun_delivers_the_rest(self):
        stack = make_stack()
        log = []
        record_arrivals(stack, log)
        stack.register_handler(1, "x", lambda node, _p: 1 / 0)
        stack.broadcast(0, "x")
        with pytest.raises(ZeroDivisionError):
            stack.sim.run()
        stack.sim.run()
        assert [node for node, _ in log] == [2, 3]
        stats = stack.sim.stats
        assert stats.scheduled == stats.fired + 1  # the raising delivery

    def test_lossy_channel_also_sweeps(self, monkeypatch):
        calls = []
        sweep = NetworkStack._sweep

        def counting(self, *args):
            calls.append(args[-1])
            return sweep(self, *args)

        monkeypatch.setattr(NetworkStack, "_sweep", counting)
        radio = RadioParams(range_m=50.0, ambient_loss=1e-9)
        times = arrival_times(radio)
        assert sorted(times) == [1, 2, 3]
        assert calls == [0]  # one kernel entry for all three receivers


class TestKillDuringPropagation:
    def test_receiver_killed_while_the_frame_travels_gets_nothing(self):
        times = arrival_times()
        delay = RadioParams().propagation_delay(30.0)
        stack = make_stack()
        log = []
        record_arrivals(stack, log)
        stack.sim.schedule_at(times[3] - delay / 2, stack.fail_node, (3,))
        stack.broadcast(0, "x")
        stack.sim.run()
        assert [node for node, _ in log] == [1, 2]
        assert stack.medium.stats.deliveries == 2
        assert stack.energy.spent(3) == 0.0
        assert stack.energy.spent(1) > 0.0
        assert node_rx_messages(stack.counters, 3) == 0


def arrivals_over(positions):
    """Receiver -> arrival time of one broadcast from node 0 at
    ``positions[0]``, plus the arrival order."""
    stack = make_stack(positions=positions)
    log = []
    record_arrivals(stack, log, range(1, len(positions)))
    stack.broadcast(0, "x")
    stack.sim.run()
    assert stack.sim.stats.scheduled == stack.sim.stats.fired
    return dict(log), [node for node, _ in log]


class TestArrivalEdgeCases:
    def test_coincident_receiver_hears_the_frame_at_its_end(self):
        times, order = arrivals_over([[0.0, 0.0], [10.0, 0.0], [0.0, 0.0]])
        assert order == [2, 1]
        assert times[1] == times[2] + RadioParams().propagation_delay(10.0)

    def test_arrivals_rounding_to_one_instant_keep_adjacency_order(self):
        # Node 1 is farther than node 2 by far less than the clock's float
        # spacing: both arrive at one instant, ordered by their seqs.
        times, order = arrivals_over(
            [[0.0, 0.0], [10.0 + 1e-11, 0.0], [10.0, 0.0]]
        )
        delay = RadioParams().propagation_delay
        assert delay(10.0 + 1e-11) > delay(10.0)
        assert times[1] == times[2]
        assert order == [1, 2]
