"""Distributed aggregation-tree construction (HELLO flooding) and
query dissemination.

The base station broadcasts a ``hello`` carrying its depth (0) and the
query description (aggregate name, epoch parameters — TAG piggybacks
the query on the tree flood and so do we). Each node adopts the *first*
hello it hears as its parent, takes depth+1, stores the query, and
rebroadcasts after a short randomized delay (to avoid synchronized
collisions). Hellos from deeper or equal depth are ignored. The result
is a BFS-like spanning tree of the nodes the flood actually reached —
collisions can orphan nodes, which is one of the loss factors the
accuracy evaluation quantifies.

This protocol runs on the simulated radio stack; the *offline* BFS in
:mod:`repro.topology.graphs` serves the analysis code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.packet import Packet
from repro.net.transport import Transport

#: Message kind used by the flood.
HELLO_KIND = "hello"

#: Mean per-hop HELLO forwarding delay (seconds); each hop's delay is
#: jittered uniformly in [0.5x, 1.5x].
FORWARD_DELAY_S = 0.02
#: Virtual-time budget for the flood; generous for <=1000 nodes.
SETTLE_TIME_S = 30.0


@dataclass
class TreeBuildResult:
    """Outcome of a distributed tree construction.

    Attributes
    ----------
    parents:
        node -> parent (root maps to None). Only reached nodes appear.
    depths:
        node -> hop depth from the root.
    children:
        parent -> sorted list of child nodes (every reached node keyed).
    root:
        The base station id.
    """

    root: int
    parents: Dict[int, Optional[int]] = field(default_factory=dict)
    depths: Dict[int, int] = field(default_factory=dict)
    children: Dict[int, List[int]] = field(default_factory=dict)
    #: The query string each node actually received with its first
    #: hello ("" when the flood carried none) — downstream phases can
    #: assert nodes agree on what is being computed.
    query_at: Dict[int, str] = field(default_factory=dict)

    @property
    def reached(self) -> int:
        """Number of nodes in the tree (root included)."""
        return len(self.parents)

    def max_depth(self) -> int:
        """Deepest hop count in the tree."""
        return max(self.depths.values()) if self.depths else 0


class _TreeBuilder:
    """Per-run state machine driving the HELLO flood."""

    def __init__(
        self,
        stack: Transport,
        root: int,
        query: str = "",
    ) -> None:
        self._stack = stack
        self._root = root
        self._query = query
        self._rng = stack.sim.rng.stream("tree.forward_jitter")
        self.result = TreeBuildResult(root=root)
        on_hello = self._on_hello
        for node_id in stack.node_ids():
            stack.register_handler(node_id, HELLO_KIND, on_hello)

    def start(self) -> None:
        self.result.parents[self._root] = None
        self.result.depths[self._root] = 0
        self.result.children.setdefault(self._root, [])
        self.result.query_at[self._root] = self._query
        self._stack.broadcast(
            self._root, HELLO_KIND, {"depth": 0, "query": self._query}
        )
        # Burst boundary: the root hello is a complete burst of its own.
        # Per-frame backends no-op; the bulk backend seals here.
        self._stack.flush()
        self._stack.sim.trace.emit("tree.start", "hello flood started", root=self._root)

    def _on_hello(self, node_id: int, packet: Packet) -> None:
        if node_id == self._root:
            return
        if node_id in self.result.parents:
            return
        depth = int(packet.payload["depth"]) + 1
        query = str(packet.payload.get("query", ""))
        parent = packet.src
        self.result.parents[node_id] = parent
        self.result.depths[node_id] = depth
        self.result.query_at[node_id] = query
        self.result.children.setdefault(parent, []).append(node_id)
        self.result.children.setdefault(node_id, [])
        delay = self._rng.uniform(0.5, 1.5) * FORWARD_DELAY_S
        # Bound method + args payload: no per-hello closure allocation.
        self._stack.sim.schedule(
            delay,
            self._forward,
            args=(node_id, HELLO_KIND, {"depth": depth, "query": query}),
        )
        self._stack.sim.trace.emit(
            "tree.join",
            f"node {node_id} joined at depth {depth}",
            node=node_id,
            parent=parent,
            depth=depth,
        )

    def _forward(self, node_id: int, kind: str, payload: dict) -> None:
        """Rebroadcast a hello and mark the burst boundary (one flood
        hop is one burst; the bulk backend seals it in one draw)."""
        self._stack.broadcast(node_id, kind, payload)
        self._stack.flush()


def build_aggregation_tree(
    stack: Transport,
    *,
    query: str = "",
) -> TreeBuildResult:
    """Run the HELLO flood from the base station to completion and return
    the tree.

    Parameters
    ----------
    stack:
        The radio network to flood.
    query:
        Query description piggybacked on the flood (e.g. the aggregate
        name); every reached node records what it received in
        ``query_at``.

    Notes
    -----
    The children lists are sorted before returning so downstream protocols
    iterate deterministically.
    """
    builder = _TreeBuilder(stack, stack.deployment.base_station, query=query)
    builder.start()
    stack.sim.run(until=stack.sim.now + SETTLE_TIME_S)
    for node in builder.result.children:
        builder.result.children[node].sort()
    return builder.result
