"""The assembled per-network communication stack.

:class:`NetworkStack` wires a deployment into a working radio network:
one shared :class:`~repro.net.medium.WirelessMedium`, one
:class:`~repro.net.mac.CsmaMac` and :class:`~repro.net.node.Node` per
sensor, plus byte/energy accounting. Protocol layers (TAG, iCPDA) talk
only to this facade (``send``/``broadcast`` out, ``register_handler``/
``register_overhear`` in):

>>> import numpy as np
>>> from repro.sim.kernel import Simulator
>>> from repro.topology.deploy import Deployment
>>> pair = Deployment(
...     positions=np.array([[0.0, 0.0], [30.0, 0.0]]),
...     field_size=100.0,
...     radio_range=50.0,
... )
>>> stack = NetworkStack(Simulator(seed=1), pair)
>>> got = []
>>> stack.register_handler(1, "report", lambda node, p: got.append(p.payload))
>>> packet = stack.send(src=0, dst=1, kind="report", payload={"value": 17})
>>> stack.sim.run()
>>> got
[{'value': 17}]
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.metrics.counters import MessageCounters
from repro.net.energy import EnergyModel
from repro.net.mac import CsmaMac, MacParams
from repro.net.medium import WirelessMedium
from repro.net.node import Node
from repro.net.packet import BROADCAST, Packet
from repro.net.radio import RadioParams
from repro.net.transport import OverhearListener, PacketHandler
from repro.sim.kernel import Simulator
from repro.topology.deploy import Deployment
from repro.topology.graphs import neighbors_within_range


class NetworkStack:
    """Radio network facade over a deployment.

    Parameters
    ----------
    sim:
        Event kernel the network runs on.
    deployment:
        Geometric ground truth (positions, range).
    radio / mac_params:
        Physical and MAC parameters (defaults match the paper's setup).
    counters / energy:
        Optional externally-owned accounting objects; fresh ones are
        created when omitted.
    """

    def __init__(
        self,
        sim: Simulator,
        deployment: Deployment,
        *,
        radio: Optional[RadioParams] = None,
        mac_params: Optional[MacParams] = None,
        counters: Optional[MessageCounters] = None,
        energy: Optional[EnergyModel] = None,
    ) -> None:
        self.sim = sim
        self.deployment = deployment
        self.radio = radio if radio is not None else RadioParams(
            range_m=deployment.radio_range
        )
        if abs(self.radio.range_m - deployment.radio_range) > 1e-9:
            raise SimulationError(
                "radio range disagrees with deployment radio_range: "
                f"{self.radio.range_m} != {deployment.radio_range}"
            )
        self.counters = counters if counters is not None else MessageCounters()
        self.energy = energy if energy is not None else EnergyModel()
        # Interned as tuples once: per-frame callers (clustering, share
        # exchange, witness selection) read these thousands of times and
        # must never pay for — or rely on — a fresh copy.
        self.adjacency: Dict[int, Tuple[int, ...]] = {
            node: tuple(neighbors)
            for node, neighbors in neighbors_within_range(deployment).items()
        }
        self.medium = WirelessMedium(
            sim,
            self.adjacency,
            self.radio,
            distances=deployment.distance,
        )
        self.nodes: Dict[int, Node] = {}
        self.macs: Dict[int, CsmaMac] = {}
        params = mac_params if mac_params is not None else MacParams()
        for node_id in range(deployment.num_nodes):
            node = Node(node_id)
            self.nodes[node_id] = node
            self.macs[node_id] = CsmaMac(sim, self.medium, node_id, params)
            self.medium.attach(node_id, self._make_delivery(node))
        # One merged, namespaced snapshot per run: every accounting
        # object this stack owns reports through the kernel's registry
        # (replace=True: a rebuilt stack on the same simulator wins).
        sim.metrics.register("medium", self.medium.stats.snapshot, replace=True)
        sim.metrics.register("counters", self.counters.snapshot, replace=True)
        sim.metrics.register("energy", self.energy.snapshot, replace=True)
        sim.metrics.register("mac", self._mac_snapshot, replace=True)

    # -- wiring ----------------------------------------------------------------

    def _mac_snapshot(self) -> Dict[str, int]:
        """Network-wide MAC totals (metrics-registry provider)."""
        totals = {"enqueued": 0, "sent": 0, "dropped": 0, "busy_senses": 0}
        queued = 0
        for mac in self.macs.values():
            for key, value in mac.stats.snapshot().items():
                totals[key] += value
            queued += mac.queue_length
        totals["queued"] = queued
        return totals

    def _make_delivery(self, node: Node) -> Callable[[Packet], None]:
        # The fused per-node receive path: energy accounting, overhear
        # dispatch, and handler dispatch in ONE closure — this runs for
        # every clean reception in the network (O(N * degree) per round),
        # so each avoided call frame matters. Listeners and handlers get
        # the receiver's id first (the seam's ``callback(node_id, packet)``
        # contract). The bound containers are
        # mutated in place by Node registration and EnergyModel.reset()
        # (.clear(), never rebind), so the bindings stay live.
        node_id = node.node_id
        energy = self.energy
        if type(energy) is EnergyModel:
            spent = energy._spent
            rx_j_per_byte = energy.rx_j_per_byte
            account_rx = None
        else:  # externally-supplied accounting object: keep the seam
            spent = {}
            rx_j_per_byte = 0.0
            account_rx = energy.account_rx
        record_rx = self.counters.record_rx
        kind_overhear = node._kind_overhear
        wild_overhear = node._wild_overhear
        handlers = node._handlers
        spent_get = spent.get

        def deliver(packet: Packet) -> None:
            size = packet.size_bytes
            if account_rx is None:
                spent[node_id] = spent_get(node_id, 0.0) + rx_j_per_byte * size
            else:
                account_rx(node_id, size)
            kind = packet.kind
            if kind_overhear:
                listeners = kind_overhear.get(kind)
                if listeners:
                    for listener in tuple(listeners):
                        node.overheard += 1
                        listener(node_id, packet)
            if wild_overhear:
                for listener in tuple(wild_overhear):
                    node.overheard += 1
                    listener(node_id, packet)
            dst = packet.dst
            if dst != BROADCAST and dst != node_id:
                return
            record_rx(node_id, kind, size)
            node.received += 1
            handler = handlers.get(kind)
            if handler is not None:
                handler(node_id, packet)

        return deliver

    # -- sending ----------------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        kind: str,
        payload: Optional[Mapping[str, Any]] = None,
        *,
        size_bytes: Optional[int] = None,
    ) -> Packet:
        """Queue a unicast frame from ``src`` to ``dst``; returns the frame."""
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
        """Queue a local-broadcast frame from ``src``; returns the frame."""
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
        """Submit many pre-sized same-kind frames at the current instant:
        one :meth:`send`/:meth:`broadcast` per row (row ``i`` broadcasts
        when ``dst[i]`` is :data:`BROADCAST`). Part of the transport
        seam; the bulk fluid backend vectorizes this."""
        for row_src, row_dst, row_size in zip(src, dst, size_bytes):
            if row_dst == BROADCAST:
                self.broadcast(row_src, kind, None, size_bytes=row_size)
            else:
                self.send(row_src, row_dst, kind, None, size_bytes=row_size)

    def _transmit(self, packet: Packet) -> None:
        mac = self.macs.get(packet.src)
        if mac is None:
            raise SimulationError(f"unknown source node {packet.src}")
        if self.medium.is_dead(packet.src):
            # A crashed radio keys up nothing: the medium would drop the
            # frame silently, so counting TX bytes/energy here would
            # overcount lifetime (F10) and overhead-under-failure rows.
            self.sim.trace.emit(
                "stack.dead_tx",
                "dead node %(node)s asked to send %(kind)s",
                node=packet.src,
                kind=packet.kind,
            )
            return
        self.counters.record_tx(packet.src, packet.kind, packet.size_bytes)
        self.energy.account_tx(packet.src, packet.size_bytes)
        mac.send(packet)

    # -- receiving ----------------------------------------------------------------

    def register_handler(self, node_id: int, kind: str, handler: PacketHandler) -> None:
        """Route addressed ``kind`` frames at ``node_id`` to ``handler``."""
        self.nodes[node_id].register_handler(kind, handler)

    def clear_handlers(self, node_id: int) -> None:
        """Remove every addressed handler at ``node_id``."""
        self.nodes[node_id]._handlers.clear()

    def register_overhear(
        self,
        node_id: int,
        listener: OverhearListener,
        kinds: Optional[Sequence[str]] = None,
    ) -> None:
        """Attach a promiscuous listener at ``node_id`` (sees all frames).

        ``kinds`` is a filter *hint*: the radio still hears every frame
        (the physical medium cannot pre-filter), but listener *dispatch*
        honors the hint, skipping listeners that would ignore the frame
        anyway. Listeners registered without ``kinds`` — or listening
        for multiple kinds — must still filter by ``packet.kind``
        themselves; the hint never changes what a listener can observe,
        only spares the no-op calls.
        """
        self.nodes[node_id].register_overhear(listener, kinds)

    def clear_overhear(self, node_id: int) -> None:
        """Remove every promiscuous listener at ``node_id``."""
        self.nodes[node_id].clear_overhear()

    def node_ids(self) -> Iterable[int]:
        """All node ids in ascending order (the iteration order every
        phase relies on for deterministic handler registration)."""
        return self.nodes.keys()

    def neighbors(self, node_id: int) -> Tuple[int, ...]:
        """Nodes within radio range of ``node_id``, as an immutable tuple
        (no per-call copy — callers on per-frame paths rely on this)."""
        return self.adjacency[node_id]

    def degree(self, node_id: int) -> int:
        """Number of radio neighbors of ``node_id``."""
        return len(self.adjacency[node_id])

    # -- lifecycle ----------------------------------------------------------------

    def fail_node(self, node_id: int) -> None:
        """Crash-stop a sensor (fail-silent): it neither transmits nor
        receives from the moment of the call. Used by failure-injection
        tests and robustness experiments."""
        self.medium.kill_node(node_id)

    def is_failed(self, node_id: int) -> bool:
        """True if the node was crash-stopped."""
        return self.medium.is_dead(node_id)

    def flush(self) -> None:
        """No-op: the DES resolves every frame through its own MAC/medium
        events. Part of the transport seam so protocol phases can mark
        burst boundaries unconditionally (the bulk fluid backend seals
        its pending batch here)."""

    def reset_accounting(self) -> None:
        """Zero every accounting namespace this stack registers (new
        round, same network): byte counters, the energy ledger, per-node
        MAC statistics, and medium statistics. Resetting only a subset
        would pair per-round byte counts with cumulative retry/backoff
        numbers in multi-round experiments."""
        self.counters.reset()
        self.energy.reset()
        for mac in self.macs.values():
            mac.stats.reset()
        self.medium.stats.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"NetworkStack(nodes={self.deployment.num_nodes}, "
            f"range={self.radio.range_m}m)"
        )
