"""Distributed aggregation-tree construction (HELLO flooding) and
query dissemination.

The base station broadcasts a ``hello`` carrying its depth (0) and the
query description (aggregate name, epoch parameters — TAG piggybacks
the query on the tree flood and so do we). Each node adopts the *first*
hello it hears as its parent, takes depth+1, stores the query, and
rebroadcasts after a short randomized delay (to avoid synchronized
collisions). Every later hello is ignored, even one from a shallower
node. The result is a BFS-like spanning tree of the nodes the flood
actually reached — collisions can orphan nodes, which is one of the
loss factors the accuracy evaluation quantifies.

On a transport with columnar delivery (``fluid-bulk``) the flood takes
each resolve tick's hellos as one batch and keys the rebroadcasts up
through ``broadcast_later``; the tree, the draws and the books are the
same as hello by hello.

This protocol runs on the simulated radio stack; the *offline* BFS in
:mod:`repro.topology.graphs` serves the analysis code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.net.packet import HEADER_BYTES, Packet, payload_size
from repro.net.transport import Transport

#: Message kind used by the flood.
HELLO_KIND = "hello"

#: Mean per-hop HELLO forwarding delay (seconds); each hop's delay is
#: jittered uniformly in [0.5x, 1.5x].
FORWARD_DELAY_S = 0.02
#: Virtual-time budget for the flood. The last node of a 100k-node,
#: degree-17 field joins at 2.3 s (depth 127; 1.1 s at 20k, 0.12 s at 1k).
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
        register_columns = getattr(stack, "register_columns", None)
        if register_columns is None:
            on_hello = self._on_hello
            for node_id in stack.node_ids():
                stack.register_handler(node_id, HELLO_KIND, on_hello)
            return
        # Columnar flood: who is reached, and at what depth, by node.
        num_nodes = stack.deployment.num_nodes
        self._reached = np.zeros(num_nodes, dtype=bool)
        self._reached[root] = True
        self._depth = np.zeros(num_nodes, dtype=np.int64)
        # A depth is a hop count below 2**31, always 4 bytes.
        self._hello_bytes = HEADER_BYTES + payload_size({"depth": 0, "query": query})
        register_columns(HELLO_KIND, self._on_hellos)

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

    def _join(self, node_id: int, parent: int, depth: int, query: str) -> None:
        """``node_id`` adopts ``parent`` on its first hello."""
        result = self.result
        result.parents[node_id] = parent
        result.depths[node_id] = depth
        result.query_at[node_id] = query
        result.children.setdefault(parent, []).append(node_id)
        result.children.setdefault(node_id, [])
        trace = self._stack.sim.trace
        if trace.on:
            trace.emit(
                "tree.join",
                "node %(node)s joined at depth %(depth)s",
                node=node_id,
                parent=parent,
                depth=depth,
            )

    def _on_hello(self, node_id: int, packet: Packet) -> None:
        if node_id == self._root:
            return
        if node_id in self.result.parents:
            return
        depth = int(packet.payload["depth"]) + 1
        query = str(packet.payload.get("query", ""))
        self._join(node_id, packet.src, depth, query)
        delay = self._rng.uniform(0.5, 1.5) * FORWARD_DELAY_S
        # Bound method + args payload: no per-hello closure allocation.
        self._stack.sim.schedule(
            delay,
            self._forward,
            args=(node_id, HELLO_KIND, {"depth": depth, "query": query}),
        )

    def _on_hellos(self, src: np.ndarray, recv: np.ndarray) -> None:
        """One resolve tick's hellos: each unreached receiver joins under
        the sender of the first pair it heard, in pair order, as
        :meth:`_on_hello` would pair by pair, and the joiners' forwards
        key up at their jittered instants."""
        fresh = np.flatnonzero(~self._reached[recv])
        if not fresh.size:
            return
        first = np.sort(fresh[np.unique(recv[fresh], return_index=True)[1]])
        joiners, parents = recv[first], src[first]
        depths = self._depth[parents] + 1
        self._reached[joiners] = True
        self._depth[joiners] = depths
        query = self._query
        depth_list = depths.tolist()
        join = self._join
        for node_id, parent, depth in zip(joiners.tolist(), parents.tolist(), depth_list):
            join(node_id, parent, depth, query)
        self._stack.broadcast_later(
            HELLO_KIND,
            joiners,
            self._rng.uniform(0.5, 1.5, joiners.size) * FORWARD_DELAY_S,
            np.full(joiners.size, self._hello_bytes),
            [{"depth": depth, "query": query} for depth in depth_list],
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
