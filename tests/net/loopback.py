"""An in-memory loopback :class:`~repro.net.transport.Transport` fake.

Purpose: prove (and keep proving) that every protocol phase depends only
on the transport seam. The fake implements the full seam contract —
deferred delivery through a tiny heap scheduler, overhear-before-handler
ordering, silent dead senders — with **no loss, no MAC, no medium, and
no import of** ``repro.sim`` **or** ``repro.net.stack``. A dedicated
subprocess test asserts the phase modules plus this module load without
either backend appearing in ``sys.modules``.

Intentionally not shipped in ``src/``: production code must choose a
real backend via :func:`repro.net.transport.create_transport`.
"""

from __future__ import annotations

import heapq
import itertools
import math
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.counters import MessageCounters
from repro.metrics.registry import MetricsRegistry
from repro.net.packet import BROADCAST, Packet
from repro.net.transport import OverhearListener, PacketHandler, send_rows


class _FakeTrace:
    """Trace sink with the ``emit``/``on`` surface and no storage."""

    on = False

    def emit(self, *args: Any, **kwargs: Any) -> None:
        pass


class _FakeRngRegistry:
    """Named-stream RNG registry: one seeded generator per stream name."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(
                (self._seed, zlib.crc32(name.encode("utf-8")))
            )
            self._streams[name] = gen
        return gen


class FakeSim:
    """Minimal heap scheduler satisfying ``SimulatorLike``."""

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, Callable, Tuple]] = []
        self._seq = itertools.count()
        self._rng = _FakeRngRegistry(seed)
        self._trace = _FakeTrace()
        self.metrics = MetricsRegistry()

    @property
    def now(self) -> float:
        return self._now

    @property
    def rng(self) -> _FakeRngRegistry:
        return self._rng

    @property
    def trace(self) -> _FakeTrace:
        return self._trace

    def schedule(
        self, delay: float, callback: Callable[..., None], args: Tuple = ()
    ) -> None:
        self.schedule_at(self._now + delay, callback, args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], args: Tuple = ()
    ) -> None:
        heapq.heappush(
            self._heap, (max(time, self._now), next(self._seq), callback, args)
        )

    def run(self, until: float = math.inf) -> None:
        while self._heap and self._heap[0][0] <= until:
            time, _, callback, args = heapq.heappop(self._heap)
            self._now = time
            callback(*args)
        if until != math.inf:
            self._now = max(self._now, until)


class _NullEnergy:
    """Energy ledger surface with zero cost everywhere."""

    def account_tx(self, *args: Any) -> None:
        pass

    def spent(self, node_id: int) -> float:
        return 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {"total_j": 0.0, "max_node_j": 0.0, "nodes_charged": 0}

    def reset(self) -> None:
        pass


@dataclass
class _FakeDeployment:
    """The deployment slice the phases touch: size and the BS id."""

    num_nodes: int
    base_station: int = 0
    radio_range: float = 50.0


@dataclass
class _Overhear:
    listener: OverhearListener
    kinds: Optional[frozenset] = None

    def wants(self, kind: str) -> bool:
        return self.kinds is None or kind in self.kinds


@dataclass
class LoopbackTransport:
    """Lossless instant-ish transport over an explicit adjacency map.

    Frames are delivered ``latency_s`` after submission through the fake
    scheduler (never synchronously: the seam promises fire-and-forget
    sends, and phases schedule their own callbacks against the same
    clock). Every frame audible at a node is offered to its overhear
    listeners before the addressed handler, matching the seam contract;
    both are called as ``callback(node_id, packet)`` with the receiver.
    Like the real backends it registers ``medium``/``counters``/``energy``
    metric providers on its simulator (a lossless channel: no collisions,
    no losses, zero energy).
    """

    adjacency: Mapping[int, Sequence[int]]
    sim: FakeSim = field(default_factory=FakeSim)
    latency_s: float = 1e-4

    def __post_init__(self) -> None:
        self._adjacency: Dict[int, Tuple[int, ...]] = {
            node: tuple(sorted(peers)) for node, peers in self.adjacency.items()
        }
        self.deployment = _FakeDeployment(num_nodes=len(self._adjacency))
        self.counters = MessageCounters()
        self.energy = _NullEnergy()
        self._handlers: Dict[int, Dict[str, PacketHandler]] = {
            node: {} for node in self._adjacency
        }
        self._overhear: Dict[int, List[_Overhear]] = {}
        self._dead: set = set()
        self.transmitted: int = 0
        self.delivered: int = 0
        metrics = self.sim.metrics
        metrics.register("medium", self._medium_snapshot, replace=True)
        metrics.register("counters", self.counters.snapshot, replace=True)
        metrics.register("energy", self.energy.snapshot, replace=True)

    def _medium_snapshot(self) -> Dict[str, int]:
        return {
            "transmissions": self.transmitted,
            "deliveries": self.delivered,
            "collisions": 0,
            "ambient_losses": 0,
            "half_duplex_losses": 0,
        }

    # -- identity / topology -------------------------------------------------

    def node_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._adjacency))

    def neighbors(self, node_id: int) -> Tuple[int, ...]:
        return self._adjacency[node_id]

    def degree(self, node_id: int) -> int:
        return len(self._adjacency[node_id])

    # -- sending -------------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        kind: str,
        payload: Optional[Mapping[str, Any]] = None,
        *,
        size_bytes: Optional[int] = None,
    ) -> Packet:
        packet = Packet(
            src=src, dst=dst, kind=kind, payload=payload or {}, size_bytes=size_bytes
        )
        self._transmit(packet)
        return packet

    def broadcast(
        self,
        src: int,
        kind: str,
        payload: Optional[Mapping[str, Any]] = None,
        *,
        size_bytes: Optional[int] = None,
    ) -> Packet:
        packet = Packet(
            src=src,
            dst=BROADCAST,
            kind=kind,
            payload=payload or {},
            size_bytes=size_bytes,
        )
        self._transmit(packet)
        return packet

    def send_many(
        self,
        kind: str,
        src: Sequence[int],
        dst: Sequence[int],
        size_bytes: Sequence[int],
    ) -> None:
        """Seam parity with the real backends: one send/broadcast per
        row (row ``i`` broadcasts when ``dst[i]`` is BROADCAST)."""
        send_rows(self, kind, src, dst, size_bytes)

    def _transmit(self, packet: Packet) -> None:
        if packet.src in self._dead:
            return  # dead radios key up nothing, uncounted
        self.counters.record_tx(packet.src, packet.kind, packet.size_bytes)
        self.transmitted += 1
        self.sim.schedule_at(
            self.sim.now + self.latency_s, self._deliver, args=(packet,)
        )

    def _deliver(self, packet: Packet) -> None:
        for receiver in self._adjacency[packet.src]:
            if receiver in self._dead:
                continue
            for entry in self._overhear.get(receiver, ()):
                if entry.wants(packet.kind):
                    entry.listener(receiver, packet)
            if packet.dst == BROADCAST or packet.dst == receiver:
                self.counters.record_rx(receiver, packet.kind, packet.size_bytes)
                self.delivered += 1
                handler = self._handlers[receiver].get(packet.kind)
                if handler is not None:
                    handler(receiver, packet)

    # -- receiving -----------------------------------------------------------

    def register_handler(
        self, node_id: int, kind: str, handler: PacketHandler
    ) -> None:
        self._handlers[node_id][kind] = handler

    def register_overhear(
        self,
        node_id: int,
        listener: OverhearListener,
        kinds: Optional[Sequence[str]] = None,
    ) -> OverhearListener:
        entry = _Overhear(
            listener, frozenset(kinds) if kinds is not None else None
        )
        self._overhear.setdefault(node_id, []).append(entry)
        return listener

    def remove_overhear(self, node_id: int, listener: OverhearListener) -> None:
        kept = [e for e in self._overhear.get(node_id, ()) if e.listener != listener]
        if kept:
            self._overhear[node_id] = kept
        else:
            self._overhear.pop(node_id, None)

    # -- lifecycle / accounting ------------------------------------------------

    def fail_node(self, node_id: int) -> None:
        self._dead.add(node_id)

    def is_failed(self, node_id: int) -> bool:
        return node_id in self._dead

    def flush(self) -> None:
        """No-op burst boundary (seam parity with the real backends)."""


def line_topology(num_nodes: int, reach: int = 2) -> Dict[int, Tuple[int, ...]]:
    """Adjacency for nodes 0..N-1 on a line, each hearing ±``reach``."""
    return {
        node: tuple(
            peer
            for peer in range(max(0, node - reach), min(num_nodes, node + reach + 1))
            if peer != node
        )
        for node in range(num_nodes)
    }


def grid_topology(side: int) -> Dict[int, Tuple[int, ...]]:
    """4-connected ``side`` x ``side`` grid, node ids row-major."""
    adjacency: Dict[int, Tuple[int, ...]] = {}
    for row in range(side):
        for col in range(side):
            node = row * side + col
            peers = []
            if row > 0:
                peers.append(node - side)
            if row < side - 1:
                peers.append(node + side)
            if col > 0:
                peers.append(node - 1)
            if col < side - 1:
                peers.append(node + 1)
            adjacency[node] = tuple(peers)
    return adjacency
