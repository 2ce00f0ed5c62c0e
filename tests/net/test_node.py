"""Unit tests for node dispatch and overhearing."""

import pytest

from repro.errors import SimulationError
from repro.net.node import Node
from repro.net.packet import BROADCAST, Packet


class TestHandlerDispatch:
    def test_addressed_frame_reaches_handler(self):
        node = Node(5)
        got = []
        node.register_handler("x", lambda _node, p: got.append(p))
        node.deliver(Packet(src=1, dst=5, kind="x"))
        assert len(got) == 1
        assert node.received == 1

    def test_broadcast_reaches_handler(self):
        node = Node(5)
        got = []
        node.register_handler("x", lambda _node, p: got.append(p))
        node.deliver(Packet(src=1, dst=BROADCAST, kind="x"))
        assert len(got) == 1

    def test_frame_for_other_node_ignored(self):
        node = Node(5)
        got = []
        node.register_handler("x", lambda _node, p: got.append(p))
        node.deliver(Packet(src=1, dst=6, kind="x"))
        assert got == []
        assert node.received == 0

    def test_unknown_kind_goes_to_fallback(self):
        fallback = []
        node = Node(5, on_unhandled=lambda _node, p: fallback.append(p))
        node.deliver(Packet(src=1, dst=5, kind="mystery"))
        assert len(fallback) == 1

    def test_reregistering_replaces_handler(self):
        node = Node(5)
        first, second = [], []
        node.register_handler("x", lambda _node, p: first.append(p))
        node.register_handler("x", lambda _node, p: second.append(p))
        node.deliver(Packet(src=1, dst=5, kind="x"))
        assert first == []
        assert len(second) == 1

    def test_unregister(self):
        node = Node(5)
        got = []
        node.register_handler("x", lambda _node, p: got.append(p))
        node.unregister_handler("x")
        node.deliver(Packet(src=1, dst=5, kind="x"))
        assert got == []

    def test_empty_kind_rejected(self):
        with pytest.raises(SimulationError):
            Node(5).register_handler("", lambda _node, p: None)


class TestOverhearing:
    def test_overhear_sees_frames_for_others(self):
        node = Node(5)
        heard = []
        node.register_overhear(lambda _node, p: heard.append(p))
        node.deliver(Packet(src=1, dst=6, kind="x"))
        assert len(heard) == 1
        assert node.overheard == 1

    def test_overhear_sees_own_frames_too(self):
        node = Node(5)
        heard = []
        node.register_overhear(lambda _node, p: heard.append(p))
        node.deliver(Packet(src=1, dst=5, kind="x"))
        assert len(heard) == 1

    def test_multiple_listeners_all_called(self):
        node = Node(5)
        a, b = [], []
        node.register_overhear(lambda _node, p: a.append(p))
        node.register_overhear(lambda _node, p: b.append(p))
        node.deliver(Packet(src=1, dst=9, kind="x"))
        assert len(a) == 1 and len(b) == 1

    def test_clear_overhear(self):
        node = Node(5)
        heard = []
        node.register_overhear(lambda _node, p: heard.append(p))
        node.clear_overhear()
        node.deliver(Packet(src=1, dst=9, kind="x"))
        assert heard == []

    def test_overhear_runs_before_handler(self):
        node = Node(5)
        order = []
        node.register_overhear(lambda _node, p: order.append("overhear"))
        node.register_handler("x", lambda _node, p: order.append("handler"))
        node.deliver(Packet(src=1, dst=5, kind="x"))
        assert order == ["overhear", "handler"]
