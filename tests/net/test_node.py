"""Unit tests for per-node dispatch and overhearing in the DES stack.

Three radios in mutual range: node 0 sends, node 1 is the node under
test, and node 2 is another destination that node 1 still hears.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.net.packet import BROADCAST
from repro.net.stack import NetworkStack
from repro.sim.kernel import Simulator
from repro.topology.deploy import Deployment
from tests.counter_reads import node_rx_messages


@pytest.fixture
def stack():
    triangle = Deployment(
        positions=np.array([[0.0, 0.0], [30.0, 0.0], [15.0, 20.0]]),
        field_size=100.0,
        radio_range=50.0,
    )
    return NetworkStack(Simulator(seed=3), triangle)


def deliver(stack, dst, kind="x"):
    """Send one frame from node 0 to ``dst`` and run it to completion."""
    if dst == BROADCAST:
        stack.broadcast(0, kind)
    else:
        stack.send(0, dst, kind)
    stack.sim.run()


class TestHandlerDispatch:
    def test_addressed_frame_reaches_handler(self, stack):
        got = []
        stack.register_handler(1, "x", lambda _node, p: got.append(p))
        deliver(stack, 1)
        assert len(got) == 1
        assert node_rx_messages(stack.counters, 1) == 1

    def test_broadcast_reaches_handler(self, stack):
        got = []
        stack.register_handler(1, "x", lambda _node, p: got.append(p))
        deliver(stack, BROADCAST)
        assert len(got) == 1

    def test_frame_for_other_node_ignored(self, stack):
        got = []
        stack.register_handler(1, "x", lambda _node, p: got.append(p))
        deliver(stack, 2)
        assert got == []
        assert node_rx_messages(stack.counters, 1) == 0

    def test_reregistering_replaces_handler(self, stack):
        first, second = [], []
        stack.register_handler(1, "x", lambda _node, p: first.append(p))
        stack.register_handler(1, "x", lambda _node, p: second.append(p))
        deliver(stack, 1)
        assert first == []
        assert len(second) == 1

    def test_empty_kind_rejected(self, stack):
        with pytest.raises(SimulationError):
            stack.register_handler(1, "", lambda _node, p: None)


class TestOverhearing:
    def test_overhear_sees_frames_for_others(self, stack):
        heard = []
        stack.register_overhear(1, lambda _node, p: heard.append(p))
        deliver(stack, 2)
        assert len(heard) == 1

    def test_overhear_sees_own_frames_too(self, stack):
        heard = []
        stack.register_overhear(1, lambda _node, p: heard.append(p))
        deliver(stack, 1)
        assert len(heard) == 1

    def test_multiple_listeners_all_called(self, stack):
        a, b = [], []
        stack.register_overhear(1, lambda _node, p: a.append(p))
        stack.register_overhear(1, lambda _node, p: b.append(p))
        deliver(stack, 2)
        assert len(a) == 1 and len(b) == 1

    def test_remove_overhear(self, stack):
        heard, kept = [], []
        listener = stack.register_overhear(1, lambda _node, p: heard.append(p))
        stack.register_overhear(1, lambda _node, p: kept.append(p))
        stack.remove_overhear(1, listener)
        deliver(stack, 2)
        assert heard == []
        assert len(kept) == 1

    def test_overhear_runs_before_handler(self, stack):
        order = []
        stack.register_overhear(1, lambda _node, p: order.append("overhear"))
        stack.register_handler(1, "x", lambda _node, p: order.append("handler"))
        deliver(stack, 1)
        assert order == ["overhear", "handler"]
