"""The shared wireless medium: broadcast propagation, collisions,
carrier sense, and promiscuous overhearing.

Model
-----
A transmission by node ``s`` occupies the channel at every node within
radio range of ``s`` for the frame's airtime. A reception at node ``r``
is *corrupted* if

* any other transmission audible at ``r`` overlaps it in time, or
* ``r`` itself transmits during the reception (half-duplex radios), or
* an independent ambient-loss coin flips against it.

Clean receptions are delivered to ``r`` when the frame reaches it: its
end time plus the propagation delay. Delivery happens for **every**
in-range node — addressing is a link-layer filter, so promiscuous
listeners (iCPDA witnesses) observe frames not addressed to them. This
shared-medium behaviour is exactly the physical property the paper's
integrity mechanism exploits.

Delivery
--------
A frame's end reserves one kernel key per receiver it reaches, ``(t_end
+ delay, seq)`` with seqs in adjacency order, and one heap entry hands
them all to the sweep registered with :meth:`WirelessMedium.attach_sweep`.
A receiver at distance zero gets the frame at its end time, through a
direct sweep call.

Hot path
--------
In dense fields every frame fans out to ~15-20 radios, so the per-frame
bookkeeping here dominates simulator wall-clock. The implementation
therefore keeps *O(1)-per-receiver* state — an integer overlap counter
per node plus one global list of in-flight transmissions — instead of a
per-node set of transmission objects, and materializes a transmission's
per-receiver corruption map only when an overlap actually occurs (under
CSMA the channel is idle for the vast majority of frames). The observable
behaviour (deliveries, corruption causes, RNG draws, trace records) is
byte-identical to the reference set-based implementation; the invariants
that guarantee this are documented in ``docs/PERF.md``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.net.packet import Packet
from repro.net.radio import RadioParams
from repro.sim.kernel import Simulator
from repro.topology.graphs import LinkGraph

#: One reception of a frame: ``(propagation delay, seq offset, receiver)``.
DeliveryEntry = Tuple[float, int, int]

#: Corruption causes, recorded the moment a frame is corrupted (not
#: inferred at completion, where the channel state may have moved on).
CAUSE_COLLISION = "collision"
CAUSE_HALF_DUPLEX = "half_duplex"


class _Transmission:
    """Bookkeeping for one in-flight frame.

    ``corrupted_at`` (receiver id -> first corruption cause observed at
    that receiver) is ``None`` until the first corruption: clean frames —
    the common case under CSMA — never allocate the dict.
    """

    __slots__ = ("tx_id", "sender", "packet", "start", "end", "corrupted_at")

    def __init__(
        self, tx_id: int, sender: int, packet: Packet, start: float, end: float
    ) -> None:
        self.tx_id = tx_id
        self.sender = sender
        self.packet = packet
        self.start = start
        self.end = end
        self.corrupted_at: Optional[Dict[int, str]] = None

    def corrupt(self, receiver: int, cause: str) -> None:
        """Record ``cause`` at ``receiver`` unless one is already set
        (first cause wins)."""
        corrupted = self.corrupted_at
        if corrupted is None:
            self.corrupted_at = {receiver: cause}
        else:
            corrupted.setdefault(receiver, cause)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"_Transmission(#{self.tx_id} from {self.sender} "
            f"[{self.start:.6f}, {self.end:.6f}])"
        )


@dataclass
class MediumStats:
    """Aggregate channel statistics for a run."""

    transmissions: int = 0
    deliveries: int = 0
    collisions: int = 0
    ambient_losses: int = 0
    half_duplex_losses: int = 0

    def snapshot(self) -> dict:
        return {
            "transmissions": self.transmissions,
            "deliveries": self.deliveries,
            "collisions": self.collisions,
            "ambient_losses": self.ambient_losses,
            "half_duplex_losses": self.half_duplex_losses,
        }

    def reset(self) -> None:
        """Zero all counters (new accounting period, same channel)."""
        self.transmissions = 0
        self.deliveries = 0
        self.collisions = 0
        self.ambient_losses = 0
        self.half_duplex_losses = 0


class WirelessMedium:
    """Shared broadcast channel over a fixed link graph.

    Parameters
    ----------
    sim:
        Event kernel.
    links:
        The unit-disk link graph (normally :attr:`Deployment.links`): its
        rows are the in-range node ids of each node, and its length
        column gives the propagation delay and edge fading of each link.
        The topology must not change afterwards.
    radio:
        Physical-layer parameters.
    """

    def __init__(
        self,
        sim: Simulator,
        links: LinkGraph,
        radio: RadioParams,
    ) -> None:
        self._sim = sim
        self._trace = sim.trace
        self._adjacency: List[Tuple[int, ...]] = links.rows
        num_nodes = len(self._adjacency)
        self._neighbor_sets: List[frozenset] = [
            frozenset(neighbors) for neighbors in self._adjacency
        ]
        self._radio = radio
        #: Edge ``links.indptr[s] + p`` is position ``p`` of sender ``s``'s
        #: row; both columns are read one plain Python number at a time.
        self._row_start = memoryview(links.indptr)
        self._lengths = memoryview(links.lengths)
        #: sender -> ``(entries, min_gap)``, see :meth:`_delivery_order`.
        self._order_cache: Dict[int, Tuple[Tuple[DeliveryEntry, ...], float]] = {}
        self._sweep: Optional[Callable[..., None]] = None
        #: node -> number of in-flight transmissions audible there. The
        #: O(1) replacement for a per-node set of transmission objects.
        self._audible_count: List[int] = [0] * num_nodes
        #: All in-flight transmissions (tiny under CSMA: usually 0 or 1).
        self._active: List[_Transmission] = []
        self._transmitting: List[Optional[_Transmission]] = [None] * num_nodes
        self._loss_rng = sim.rng.stream("medium.ambient_loss")
        self._dead: Set[int] = set()
        #: True when the channel can lose otherwise-clean frames — gates
        #: the ambient/fading RNG machinery off the fast completion pass.
        self._lossy = radio.ambient_loss > 0 or radio.edge_fading > 0
        # Per-medium counter: a module-level one would leak monotonically
        # increasing ids across Simulator instances in one process and
        # break run-to-run trace determinism.
        self._tx_seq = itertools.count()
        self.stats = MediumStats()

    @property
    def radio(self) -> RadioParams:
        """The physical-layer parameters in force."""
        return self._radio

    def attach_sweep(self, sweep: Callable[..., None]) -> None:
        """Register the callback that delivers every frame.
        ``sweep(packet, t_end, entries, first, index)``
        runs as the event of ``entries[index]`` and delivers the rest in
        order, ``(delay, offset, receiver)`` at ``(t_end + delay, first +
        offset)``, via :meth:`Simulator.claim` or ``schedule_at(..., seq)``;
        it skips receivers dead on arrival and counts the others in
        ``stats.deliveries``. Distance-zero arrivals come as direct calls."""
        self._sweep = sweep

    def kill_node(self, node_id: int) -> None:
        """Crash-stop ``node_id``: it transmits nothing and receives
        nothing from now on, not even a frame already on its way to it
        (fail-silent model). In-flight frames it already sent still
        propagate — the radio wave is out there."""
        if not 0 <= node_id < len(self._adjacency):
            raise SimulationError(f"unknown node {node_id}")
        self._dead.add(node_id)
        if self._trace.on:
            self._trace.emit("medium.kill", "node %(node)s crashed", node=node_id)

    def is_dead(self, node_id: int) -> bool:
        """True if ``node_id`` was crash-stopped."""
        return node_id in self._dead

    def carrier_busy(self, node_id: int) -> bool:
        """True if ``node_id`` senses energy on the channel right now
        (another audible transmission, or its own ongoing one)."""
        return (
            self._audible_count[node_id] > 0
            or self._transmitting[node_id] is not None
        )

    def transmit(self, sender: int, packet: Packet) -> None:
        """Put ``packet`` on the air from ``sender`` immediately.

        The MAC is responsible for carrier sensing *before* calling this;
        the medium faithfully corrupts whatever overlaps.
        """
        adjacency = self._adjacency
        if not 0 <= sender < len(adjacency):
            raise SimulationError(f"unknown sender {sender}")
        if sender in self._dead:
            return  # crashed radios stay silent
        now = self._sim.now
        airtime = self._radio.airtime(packet)
        tx = _Transmission(next(self._tx_seq), sender, packet, now, now + airtime)
        self.stats.transmissions += 1
        trace = self._trace
        if trace.on:
            trace.emit(
                "medium.tx", "node %(sender)s sends %(kind)s", sender=sender,
                kind=packet.kind, bytes=packet.size_bytes, tx=tx.tx_id,
            )
        counts = self._audible_count
        active = self._active
        neighbors = adjacency[sender]
        if active:
            neighbor_sets = self._neighbor_sets
            # Half-duplex: if the sender was already mid-reception those
            # frames are lost at the sender. The cause is recorded here, at
            # corruption time — completion-time inference would misattribute
            # it once the channel state moves on.
            if counts[sender]:
                for ongoing in active:
                    if sender in neighbor_sets[ongoing.sender]:
                        ongoing.corrupt(sender, CAUSE_HALF_DUPLEX)
            self._transmitting[sender] = tx
            transmitting = self._transmitting
            for receiver in neighbors:
                if transmitting[receiver] is not None:
                    # A transmitting radio cannot listen: the new frame is
                    # lost at this receiver regardless of what else is in
                    # the air.
                    tx.corrupt(receiver, CAUSE_HALF_DUPLEX)
                if counts[receiver]:
                    # Overlap: this frame and every concurrently audible
                    # frame are corrupted at this receiver. First cause wins
                    # — a frame already lost to half-duplex stays there.
                    tx.corrupt(receiver, CAUSE_COLLISION)
                    for ongoing in active:
                        if receiver in neighbor_sets[ongoing.sender]:
                            ongoing.corrupt(receiver, CAUSE_COLLISION)
                counts[receiver] += 1
        else:
            # Idle channel (the common case under CSMA): nobody transmits,
            # nothing is audible anywhere — no corruption is possible.
            self._transmitting[sender] = tx
            for receiver in neighbors:
                counts[receiver] = 1
        active.append(tx)

        # Even a killed node's in-flight frame still completes.
        self._sim.schedule(airtime, self._complete, (tx,))

    # -- internal ------------------------------------------------------------

    def _complete(self, tx: _Transmission) -> None:
        self._transmitting[tx.sender] = None
        counts = self._audible_count
        receivers = self._adjacency[tx.sender]
        if receivers:
            row = self._order_cache.get(tx.sender)
            entries, min_gap = row or self._delivery_order(tx.sender, receivers)
            if entries[0][0] > 0:
                # No callback runs before _complete returns, so the
                # overlap counters may all drop first.
                for receiver in receivers:
                    counts[receiver] -= 1
                if tx.corrupted_at is not None or self._lossy or self._dead:
                    # Reference pass. The receivers the frame reaches
                    # take consecutive seq offsets in adjacency order.
                    offsets: Dict[int, int] = {}
                    start = self._row_start[tx.sender]
                    for position, receiver in enumerate(receivers):
                        if self._finish_reception(tx, receiver, start + position):
                            offsets[position] = len(offsets)
                    entries = [
                        (d, offsets[p], r) for d, p, r in entries if p in offsets
                    ]
                if entries:
                    self._propagate(tx.packet, entries, min_gap)
                self._active.remove(tx)
                return
        # Instant delivery (a receiver at distance zero): receivers
        # strictly in adjacency order, the overlap counter decremented
        # *before* each delivery, so a re-entrant transmit out of a
        # delivery callback sees the per-receiver channel state.
        for edge, receiver in enumerate(receivers, self._row_start[tx.sender]):
            counts[receiver] -= 1
            if not self._finish_reception(tx, receiver, edge):
                continue
            delay = self._radio.propagation_delay(self._lengths[edge])
            entry = ((delay, 0, receiver),)
            if entry[0][0] > 0:
                self._propagate(tx.packet, entry, math.inf)
            else:
                self._sweep(tx.packet, self._sim.now, entry, 0, 0)
        self._active.remove(tx)

    def _propagate(
        self, packet: Packet, entries: Sequence[DeliveryEntry], min_gap: float
    ) -> None:
        """Reserve one kernel key per entry and put the sweep on the heap
        at the earliest."""
        sim = self._sim
        now = sim.now
        if len(entries) > 1 and min_gap <= 2.0 * math.ulp(now):
            # Two arrivals may round to one instant, which the kernel
            # orders by seq, not by delay: sort by the kernel's own key.
            entries = sorted(entries, key=lambda e: (now + e[0], e[1]))
        first = sim.reserve(len(entries))
        delay, offset, _ = entries[0]
        args = (packet, now, entries, first, 0)
        sim.schedule_at(now + delay, self._sweep, args, first + offset)

    def _delivery_order(
        self, sender: int, receivers: Tuple[int, ...]
    ) -> Tuple[Tuple[DeliveryEntry, ...], float]:
        """Cached ``(entries, min_gap)`` for ``sender``: one ``(delay,
        adjacency position, receiver)`` per receiver, sorted, and the
        smallest non-zero gap between two delays. The delay is the exact
        ``d / c`` division, so arrival times stay bit-identical."""
        row = self._order_cache.get(sender)
        if row is None:
            delay = self._radio.propagation_delay
            lengths = self._lengths
            start = self._row_start[sender]
            entries = tuple(
                sorted(
                    (delay(lengths[start + p]), p, r) for p, r in enumerate(receivers)
                )
            )
            gaps = [b[0] - a[0] for a, b in zip(entries, entries[1:]) if b[0] > a[0]]
            row = (entries, min(gaps, default=math.inf))
            self._order_cache[sender] = row
        return row

    def _finish_reception(self, tx: _Transmission, receiver: int, edge: int) -> bool:
        """Count and trace ``tx``'s fate at ``receiver``, over link
        ``edge``; True if a live receiver gets the frame (delivering it
        is the caller's job)."""
        # A crashed receiver observes nothing: its losses must not enter
        # MediumStats (collision/loss rates are per *live* radio). The
        # ambient-loss coin is still flipped below so the shared RNG
        # stream — and therefore every other receiver's fate in a seeded
        # run — is byte-identical with and without the dead node.
        dead = receiver in self._dead
        corrupted = tx.corrupted_at
        cause = corrupted.get(receiver) if corrupted is not None else None
        if cause is not None:
            if dead:
                return False
            if cause == CAUSE_HALF_DUPLEX:
                self.stats.half_duplex_losses += 1
            else:
                self.stats.collisions += 1
            trace = self._trace
            if trace.on:
                trace.emit(
                    "medium.collision",
                    "frame %(kind)s lost at %(receiver)s (%(cause)s)",
                    sender=tx.sender,
                    receiver=receiver,
                    kind=tx.packet.kind,
                    cause=cause,
                )
            return False
        radio = self._radio
        loss_probability = radio.ambient_loss
        if radio.edge_fading > 0:
            loss_probability = 1.0 - (1.0 - loss_probability) * (
                1.0 - radio.fading_loss_probability(self._lengths[edge])
            )
        if loss_probability > 0 and self._loss_rng.random() < loss_probability:
            if dead:
                return False
            self.stats.ambient_losses += 1
            trace = self._trace
            if trace.on:
                trace.emit(
                    "medium.ambient_loss",
                    "frame %(kind)s faded at %(receiver)s",
                    sender=tx.sender,
                    receiver=receiver,
                    kind=tx.packet.kind,
                )
            return False
        return not dead
