"""The assembled per-network communication stack.

:class:`NetworkStack` wires a deployment into a working radio network:
one shared :class:`~repro.net.medium.WirelessMedium`, one
:class:`~repro.net.mac.CsmaMac` and one handler table per sensor, plus
byte/energy accounting. Protocol layers (TAG, iCPDA) talk only to this
facade (``send``/``broadcast`` out, ``register_handler``/
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

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.metrics.counters import MessageCounters
from repro.net.energy import FOLD_AT, EnergyModel
from repro.net.mac import CsmaMac, MacParams
from repro.net.medium import DeliveryEntry, WirelessMedium
from repro.net.packet import BROADCAST, Packet
from repro.net.radio import RadioParams
from repro.net.transport import OverhearListener, PacketHandler, drop_listener
from repro.net.transport import send_rows
from repro.sim.kernel import Simulator
from repro.topology.deploy import Deployment


class NetworkStack:
    """Radio network facade over a deployment.

    Parameters
    ----------
    sim:
        Event kernel the network runs on.
    deployment:
        Geometric ground truth (positions, range).
    radio:
        Physical-layer parameters (defaults match the paper's setup); the
        MAC runs with the default :class:`MacParams`.
    """

    def __init__(
        self,
        sim: Simulator,
        deployment: Deployment,
        *,
        radio: Optional[RadioParams] = None,
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
        self.counters = MessageCounters()
        self.energy = EnergyModel()
        # The deployment's shared neighbor tuples (node id -> tuple):
        # per-frame callers (clustering, share exchange, witness
        # selection) read these thousands of times and must never pay
        # for — or rely on — a fresh copy.
        links = deployment.links
        self.adjacency: List[Tuple[int, ...]] = links.rows
        self.medium = WirelessMedium(sim, links, self.radio)
        self.macs: Dict[int, CsmaMac] = {}
        params = MacParams()
        for node_id in range(deployment.num_nodes):
            self.macs[node_id] = CsmaMac(sim, self.medium, node_id, params)
        # Handlers and overhear listeners, laid out as in the fluid
        # transports: node id -> kind -> handler (a list), kind -> node ->
        # listeners (kinds= hint), node -> listeners (no hint). The sweep
        # reads these, the medium's dead set and the energy ledger's
        # staging lists directly, so all of them are mutated in place,
        # never rebound.
        self._handlers: List[Dict[str, PacketHandler]] = [
            {} for _ in range(deployment.num_nodes)
        ]
        self._kind_overhear: Dict[str, Dict[int, List[OverhearListener]]] = {}
        self._wild_overhear: Dict[int, List[OverhearListener]] = {}
        self._dead = self.medium._dead
        self._rx_nodes = self.energy.staged_nodes
        self._rx_joules = self.energy.staged_joules
        self._record_rx = self.counters.record_rx
        self._claim = sim.claim
        self.medium.attach_sweep(self._sweep)
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

    def _sweep(
        self,
        packet: Packet,
        start: float,
        entries: Sequence[DeliveryEntry],
        first: int,
        index: int,
    ) -> None:
        """Deliver ``packet`` to ``entries[index:]`` in arrival order, as
        the medium's sweep (:meth:`WirelessMedium.attach_sweep`).

        Per live receiver: rx energy, then kind-scoped and wildcard
        overhear listeners, then — if addressed to it — the rx counters
        and the handler, each called as ``callback(node_id, packet)``.
        A receiver nobody listens on pays the energy add only.
        """
        claim = self._claim
        dead = self._dead
        handlers_of = self._handlers
        kind = packet.kind
        kind_overhear = self._kind_overhear.get(kind)
        if kind_overhear is None:  # a live view: handlers may register mid-sweep
            kind_overhear = self._kind_overhear[kind] = {}
        wild_overhear = self._wild_overhear
        record_rx = self._record_rx
        size = packet.size_bytes
        stage_node = self._rx_nodes.append
        stage_joules = self._rx_joules.append
        rx_j = self.energy.rx_j_per_byte * size
        dst = packet.dst
        broadcast = dst == BROADCAST
        start_index = index
        skipped = 0
        due = True  # the first entry's own kernel event is running
        try:
            for delay, offset, receiver in entries[index:]:
                if due:
                    due = False
                elif not claim(start + delay, first + offset):
                    return
                index += 1
                if receiver in dead:
                    skipped += 1
                    continue
                stage_node(receiver)
                stage_joules(rx_j)
                if receiver in kind_overhear:
                    for listener in tuple(kind_overhear[receiver]):
                        listener(receiver, packet)
                if wild_overhear and receiver in wild_overhear:
                    for listener in tuple(wild_overhear[receiver]):
                        listener(receiver, packet)
                if broadcast or dst == receiver:
                    record_rx(receiver, kind, size)
                    handler = handlers_of[receiver].get(kind)
                    if handler is not None:
                        handler(receiver, packet)
        finally:
            self.medium.stats.deliveries += index - start_index - skipped
            if len(self._rx_nodes) >= FOLD_AT:
                self.energy.fold()
            # A key that was not claimed — the next one is not due, or a
            # listener or handler raised — goes back on the heap with the
            # rest of the frame behind it, pending as its own event would be.
            if index < len(entries):
                delay, offset, _ = entries[index]
                args = (packet, start, entries, first, index)
                self.sim.schedule_at(start + delay, self._sweep, args, first + offset)

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
        """One :meth:`send`/:meth:`broadcast` per row (see
        :meth:`Transport.send_many <repro.net.transport.Transport.send_many>`)."""
        send_rows(self, kind, src, dst, size_bytes)

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
        """Route addressed ``kind`` frames at ``node_id`` to ``handler``.

        Re-registering a kind replaces the previous handler (protocol
        phases hand the same message types to new logic). Addressed
        frames of a kind with no handler are ignored, like a real stack.
        """
        if not kind:
            raise SimulationError("handler kind must be non-empty")
        self._handlers[node_id][kind] = handler

    def register_overhear(
        self,
        node_id: int,
        listener: OverhearListener,
        kinds: Optional[Sequence[str]] = None,
    ) -> OverhearListener:
        """Attach a promiscuous listener at ``node_id`` (sees all frames);
        returns ``listener``, for :meth:`remove_overhear`.

        ``kinds`` is a filter *hint*: the radio still hears every frame
        (the physical medium cannot pre-filter), but listener *dispatch*
        honors the hint, skipping listeners that would ignore the frame
        anyway. Listeners registered without ``kinds`` — or listening
        for multiple kinds — must still filter by ``packet.kind``
        themselves; the hint never changes what a listener can observe,
        only spares the no-op calls.
        """
        if not 0 <= node_id < len(self.adjacency):
            raise KeyError(node_id)
        if kinds is None:
            self._wild_overhear.setdefault(node_id, []).append(listener)
            return listener
        for kind in kinds:
            by_node = self._kind_overhear.setdefault(kind, {})
            by_node.setdefault(node_id, []).append(listener)
        return listener

    def remove_overhear(self, node_id: int, listener: OverhearListener) -> None:
        """Detach ``listener`` from ``node_id`` (every kind it was
        registered for); every other listener stays."""
        drop_listener(self._wild_overhear, node_id, listener)
        for by_node in self._kind_overhear.values():
            drop_listener(by_node, node_id, listener)

    def node_ids(self) -> Iterable[int]:
        """All node ids in ascending order (the iteration order every
        phase relies on for deterministic handler registration)."""
        return self.macs.keys()

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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"NetworkStack(nodes={self.deployment.num_nodes}, "
            f"range={self.radio.range_m}m)"
        )
