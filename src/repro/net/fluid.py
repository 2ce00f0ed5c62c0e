"""Analytic "fluid" transport: closed-form loss and delay, no medium.

The DES backend (:class:`~repro.net.stack.NetworkStack`) simulates every
carrier sense, backoff, collision and per-receiver delivery — faithful,
but one kernel event per receiver of every frame. This backend replaces
the medium/MAC pair with *sampled closed-form distributions*:

* **Delay.** One event per frame: MAC access jitter (uniform, matching
  the DES desynchronization jitter) plus the frame's airtime. No carrier
  sensing — under CSMA the channel is idle for the vast majority of
  frames, so access delay is well modelled by the jitter alone.
* **Loss.** Per receiver, an independent coin combining the radio's
  ambient loss, its distance-dependent edge fading, and a *congestion*
  term that stands in for collisions: denser neighborhoods lose more
  frames, calibrated so dense-field loss rates match the DES (see
  ``tests/analysis/test_des_fluid_coherence.py``). The congestion term
  is gated on *contention*, tracked per radio-range-sized grid cell: a
  frame pays congestion only if it overlaps, in time, another frame
  keyed up in its sender's grid cell. Frames alone in the air — or
  concurrent but spatially disjoint — cannot collide, so only
  ambient/fading losses apply to them. The gate is what lets one
  calibration serve both bursty phases (share exchange) and slotted,
  nearly collision-free ones (witnessed reports) — without it, witness
  overhears absorb phantom collision losses and the integrity layer
  raises alarms the DES never sees.
* **Fan-out.** Frames are delivered only where someone listens: the
  addressed handler, plus overhear listeners registered for the frame's
  kind (the ``kinds=`` hint on ``register_overhear`` that the DES
  ignores). Uninterested receivers pay *energy* for the reception — the
  radio still heard it — via a lazily-flushed per-sender ledger, without
  paying a Python callback each.

Determinism: a seeded run is exactly reproducible (all draws come from
the kernel's named RNG streams), but the event schedule is *not*
byte-identical to the DES backend — coherence with the DES is statistical
and asserted by the analysis test suite at overlapping scales.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import ScheduleInPastError, SimulationError
from repro.metrics.counters import MessageCounters
from repro.net.energy import FOLD_AT, EnergyModel, first_seen
from repro.net.packet import BROADCAST, Packet
from repro.net.radio import RadioParams
from repro.net.transport import (
    ColumnHandler,
    MediumStats,
    OverhearListener,
    PacketHandler,
    drop_listener,
    send_many_columns,
    send_rows,
)
from repro.topology.spatial import compact_cell_ids

#: One logged ``send_many`` call: (instant, kind, src, dst, size).
_Call = Tuple[float, str, np.ndarray, np.ndarray, np.ndarray]

#: An empty column batch.
_NO_ROWS = np.zeros(0, dtype=np.int64)

#: Row bound of the bulk backend's replay log: a log this long is
#: settled when a batch arrives at a new instant (bounds its memory).
_LOG_ROWS = 4096

#: Batches up to this many rows take the contention gate's row loop,
#: which costs less than the vectorized pass's fixed numpy overhead.
_GATE_LOOP_ROWS = 128

#: One run of the bulk resolve queue, in seal order, as columns: delivery
#: instant, src, dst, contended flag, kind code, size, and Packet objects
#: (or, where none was built, the payload to build one from: ``None``
#: for a payload-free ``send_many`` row).
_Chunk = Tuple[np.ndarray, ...]

#: Pending future key-ups (:meth:`BulkFluidTransport.broadcast_later`),
#: sorted by kernel key, as columns: instant, reserved seq, src, size,
#: kind (index into ``_keyup_kinds``), latest delivery instant, the
#: resolve tick it needs, and payloads.
_KeyUps = Tuple[np.ndarray, ...]


def _contention_gate(
    cells: np.ndarray, keyup: np.ndarray, end: np.ndarray, busy: List[float]
) -> np.ndarray:
    """The per-cell contention gate, vectorized and exact: in row order,
    row ``r`` is contended iff it keys up before its cell's busy horizon,
    which it then raises to ``end[r]``; ``busy`` (cell -> horizon) is
    updated in place. Each row's horizon is a running maximum per cell,
    taken over float ranks with each cell's lifted above every earlier
    cell's, so one ``maximum.accumulate`` serves all cells."""
    count = cells.size
    if count <= _GATE_LOOP_ROWS:
        contended = []
        for cell, start, stop in zip(cells.tolist(), keyup.tolist(), end.tolist()):
            contended.append(start < busy[cell])
            if stop > busy[cell]:
                busy[cell] = stop
        return np.array(contended, dtype=bool)
    order = np.argsort(cells, kind="stable")
    by_cell = cells[order]
    first = np.flatnonzero(np.r_[True, by_cell[1:] != by_cell[:-1]])
    touched = by_cell[first].tolist()
    groups = len(touched)
    group = np.repeat(np.arange(groups, dtype=np.int64), np.diff(np.r_[first, count]))
    values, rank = np.unique(
        np.concatenate((end[order], [busy[cell] for cell in touched])),
        return_inverse=True,
    )
    lift = np.arange(groups, dtype=np.int64) * values.size
    running = np.maximum.accumulate(rank[:count] + lift[group])
    start = rank[count:] + lift  # each cell's horizon before the batch
    before = np.empty(count, dtype=np.int64)
    before[0] = -1
    before[1:] = running[:-1]  # a cell's first row sees an earlier cell's
    horizon = np.maximum(before, start[group]) - lift[group]
    contended = np.empty(count, dtype=bool)
    contended[order] = keyup[order] < values[horizon]
    last = np.r_[first[1:], count] - 1
    final = values[np.maximum(running[last], start) - lift].tolist()
    for cell, value in zip(touched, final):
        busy[cell] = value
    return contended


@dataclass(frozen=True)
class FluidParams:
    """Tuning knobs of the analytic channel model.

    Attributes
    ----------
    access_jitter_s:
        Upper bound of the uniform MAC-access delay sampled per frame
        (mirrors :class:`~repro.net.mac.MacParams.initial_jitter_s`).
    congestion_coeff / congestion_exponent:
        Per-receiver collision-loss probability for *contended* frames
        (another frame from the sender's radio-range grid cell was in
        the air at transmit time), modelled as
        ``coeff * degree(receiver) ** exponent``. CSMA keeps collision
        growth sublinear in density; the power law is calibrated so the
        per-reception collision rate of contended iCPDA traffic matches
        the DES medium across the dense-field sweep (~2.2% of receptions
        at degree 16 up to ~10.5% at degree 132). Frames that fly alone
        skip the term entirely, matching the DES's near-lossless slotted
        phases.
    congestion_cap:
        Ceiling on the congestion term (saturated fields).
    bulk_tick_s:
        Resolution quantum of the *bulk* backend only
        (:class:`BulkFluidTransport`; the per-frame path ignores it).
        Frame batches are resolved on this tick grid, so a larger tick
        buys bigger vectorized batches at the price of handler-callback
        quantization — a frame's handlers fire up to
        ``access_jitter_s + airtime + bulk_tick_s`` after its closed-form
        delivery instant. The default (one access-jitter window) is far
        below every protocol timescale (ACK timeouts, report slots).
    """

    access_jitter_s: float = 0.005
    congestion_coeff: float = 0.00283
    congestion_exponent: float = 0.74
    congestion_cap: float = 0.25
    bulk_tick_s: float = 0.005

    def __post_init__(self) -> None:
        if self.access_jitter_s < 0:
            raise SimulationError("access_jitter_s must be >= 0")
        if self.congestion_coeff < 0:
            raise SimulationError("congestion_coeff must be >= 0")
        if self.congestion_exponent < 0:
            raise SimulationError("congestion_exponent must be >= 0")
        if not 0.0 <= self.congestion_cap < 1.0:
            raise SimulationError("congestion_cap must be in [0, 1)")
        if not self.bulk_tick_s > 0:
            raise SimulationError("bulk_tick_s must be > 0")


class FluidTransport:
    """Closed-form network backend implementing the transport seam.

    Parameters
    ----------
    sim:
        Event kernel (shared with the protocol phases; the fluid model
        schedules exactly one delivery event per frame).
    deployment:
        Geometric ground truth.
    radio:
        Physical-layer parameters; must match the deployment's range.
    params:
        Analytic-channel knobs (jitter, congestion calibration).
    """

    def __init__(
        self,
        sim: Any,
        deployment: Any,
        *,
        radio: Optional[RadioParams] = None,
        params: Optional[FluidParams] = None,
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
        self.params = params if params is not None else FluidParams()
        self.counters = MessageCounters()
        self.energy = EnergyModel()
        self.energy.before_read = self._flush_rx_energy
        links = deployment.links
        #: The deployment's shared neighbor tuples (node id -> tuple).
        self.adjacency: List[Tuple[int, ...]] = links.rows
        self._stats = MediumStats()
        self.medium = self  # ``stack.medium.stats`` readers get ``stats``

        num_nodes = len(self.adjacency)
        self._num_nodes = num_nodes
        degrees = links.degrees()
        self._congestion = np.minimum(
            self.params.congestion_cap,
            self.params.congestion_coeff
            * degrees.astype(np.float64) ** self.params.congestion_exponent,
        )
        # Whole-graph link table over the deployment's CSR (ascending
        # node ids within each row): flat per-edge loss columns.
        # Contended frames pay congestion + ambient + fading; frames
        # alone in the air pay ambient + fading only. The congestion
        # share partitions the single loss coin, so statistics attribute
        # losses to congestion vs channel without a second draw. Both
        # the per-frame and the bulk path and the expected-value energy
        # ledger read these same floats.
        self._indptr = links.indptr
        self._indices = links.indices
        radio = self.radio
        congestion = self._congestion[self._indices]
        fading = (
            radio.edge_fading
            * np.clip(links.lengths / radio.range_m, 0.0, 1.0) ** 4
        )
        keep_channel = (1.0 - radio.ambient_loss) * (1.0 - fading)
        keep = keep_channel * (1.0 - congestion)
        channel = radio.ambient_loss + fading
        denominator = congestion + channel
        self._edge_share = np.divide(
            congestion,
            denominator,
            out=np.zeros_like(congestion),
            where=denominator > 0.0,
        )
        self._edge_loss_contended = 1.0 - keep
        self._edge_loss_free = 1.0 - keep_channel
        # The per-frame path reads the table one edge at a time through
        # memoryviews: each item is a plain Python number, with neither a
        # numpy call per frame nor a float-object copy of the columns.
        self._row_start = memoryview(self._indptr)
        self._loss_contended = memoryview(self._edge_loss_contended)
        self._loss_free = memoryview(self._edge_loss_free)
        self._share = memoryview(self._edge_share)
        self._handlers: Dict[int, Dict[str, PacketHandler]] = {
            node: {} for node in range(num_nodes)
        }
        #: kind -> receiver -> listeners (registered with a kinds= hint).
        self._kind_overhear: Dict[str, Dict[int, List[OverhearListener]]] = {}
        #: receiver -> wildcard listeners (registered without a hint).
        self._wild_overhear: Dict[int, List[OverhearListener]] = {}
        self._wild_count = 0
        self._dead: Set[int] = set()
        # Receive bytes each sender's neighbors owe, charged lazily (see
        # _flush_rx_energy): a per-sender column, the senders in
        # first-bank order, and per-frame rows staged as flat
        # [sender, bytes, ...] pairs.
        self._rx_bank = np.zeros(num_nodes, dtype=np.int64)
        self._rx_banked = np.zeros(num_nodes, dtype=bool)
        self._rx_order: List[np.ndarray] = []
        self._rx_rows: List[int] = []
        # Coins are drawn from the named streams in deterministic batches
        # (one numpy call per 4096 draws) — same sequence as drawing one
        # at a time, without a Python-level Generator call per frame.
        self._delay_rng = sim.rng.stream("fluid.delay")
        self._loss_rng = sim.rng.stream("fluid.loss")
        self._delay_coins: List[float] = []
        self._loss_coins: List[float] = []
        # Contention is tracked on a grid of radio-range-sized cells:
        # ``_busy_until[cell]`` is the virtual time until which a frame
        # sourced in that cell is still in the air. A frame keyed up
        # before its own cell's busy instant overlaps a *nearby*
        # transmission and is exposed to the congestion term; frames far
        # apart in space (or alone in time) cannot collide, matching the
        # DES's spatial collision locality (see the module docstring).
        cell_ids, num_cells = compact_cell_ids(
            deployment.positions, self.radio.range_m
        )
        self._busy_until: List[float] = [-1.0] * num_cells
        self._tx_cell: List[int] = cell_ids.tolist()
        # Same metrics namespaces as the DES stack (which adds ``mac``).
        sim.metrics.register(
            "medium", lambda: self.stats.snapshot(), replace=True
        )
        sim.metrics.register("counters", self.counters.snapshot, replace=True)
        sim.metrics.register("energy", self.energy.snapshot, replace=True)

    @property
    def stats(self) -> MediumStats:
        """Channel statistics (settled first, see :meth:`_settle`)."""
        self._settle()
        return self._stats

    def _settle(self) -> None:
        """Book deferred frames before a read (the per-frame path has none)."""

    # -- topology ---------------------------------------------------------------

    def node_ids(self) -> Iterable[int]:
        """All node ids in ascending order."""
        return self._handlers.keys()

    def neighbors(self, node_id: int) -> Tuple[int, ...]:
        """Nodes within radio range of ``node_id`` (interned tuple)."""
        return self.adjacency[node_id]

    def degree(self, node_id: int) -> int:
        """Number of radio neighbors of ``node_id``."""
        return len(self.adjacency[node_id])

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
        src = packet.src
        if not 0 <= src < self._num_nodes:
            raise SimulationError(f"unknown source node {src}")
        if src in self._dead:
            # Same contract as the DES: a crashed radio keys up nothing
            # and its non-transmission is not counted.
            self._trace_dead_tx(src, packet.kind)
            return
        size = packet.size_bytes
        self.counters.record_tx(src, packet.kind, size)
        self.energy.account_tx(src, size)
        self._stats.transmissions += 1
        # Receive energy at every live in-range radio, deferred: the
        # bytes are banked against the sender and flushed on read.
        rows = self._rx_rows
        rows.append(src)
        rows.append(size)
        if len(rows) >= FOLD_AT:
            self._bank_rx()
        coins = self._delay_coins
        if not coins:
            coins.extend(self._delay_rng.random(4096).tolist())
            coins.reverse()
        airtime = self.radio.airtime(packet)
        # The frame occupies the air during [key-up, key-up + airtime];
        # the access jitter is idle waiting *before* key-up and must not
        # widen the contention window.
        keyup = self.sim.now + coins.pop() * self.params.access_jitter_s
        busy = self._busy_until
        cell = self._tx_cell[src]
        contended = keyup < busy[cell]
        airtime_end = keyup + airtime
        if airtime_end > busy[cell]:
            busy[cell] = airtime_end
        self.sim.schedule(
            airtime_end - self.sim.now, self._deliver, (packet, contended)
        )

    def _trace_dead_tx(self, node: int, kind: str) -> None:
        self.sim.trace.emit(
            "fluid.dead_tx",
            "dead node %(node)s asked to send %(kind)s",
            node=node,
            kind=kind,
        )

    # -- delivery ---------------------------------------------------------------

    def _deliver(self, packet: Packet, contended: bool) -> None:
        """Resolve one frame over its sender's slice of the link table.

        One loss coin per live candidate receiver whose link can lose
        the frame (none where the probability is 0), drawn in adjacency
        order; a receiver that is dead when the pass reaches it draws
        none. Counts are summed per frame, and a broadcast's receivers
        counted in one call, booked even if a handler raises."""
        src = packet.src
        kind = packet.kind
        dst = packet.dst
        broadcast = dst == BROADCAST
        neighbors = self.adjacency[src]
        start = self._row_start[src]
        # Frames alone in the air lose only to the channel: no share.
        if contended:
            loss, share = self._loss_contended, self._share
        else:
            loss, share = self._loss_free, None
        coins = self._loss_coins
        dead = self._dead
        kind_listeners = self._kind_overhear.get(kind)
        wild = self._wild_count > 0
        delivered = collided = dropped = 0
        receivers: List[int] = []
        try:
            # Broadcast: every neighbor. Unicast: first any interested
            # overhearers among the sender's other neighbors, visited only
            # when someone registered for this kind (or a wildcard
            # listener exists) — ack/share/join traffic, which nobody
            # overhears, skips the pass — then the addressee.
            if broadcast or wild or kind_listeners is not None:
                for edge, receiver in enumerate(neighbors, start):
                    if receiver in dead or receiver == dst:
                        continue
                    wilds = self._wild_overhear.get(receiver, ()) if wild else ()
                    overhearers = ()
                    if kind_listeners is not None:
                        overhearers = kind_listeners.get(receiver, ())
                    if not broadcast and not overhearers and not wilds:
                        continue
                    probability = loss[edge]
                    if probability > 0.0:
                        if not coins:
                            coins.extend(self._loss_rng.random(4096).tolist())
                            coins.reverse()
                        draw = coins.pop()
                        if draw < probability:
                            if share is not None and draw < probability * share[edge]:
                                collided += 1
                            else:
                                dropped += 1
                            continue
                    delivered += 1
                    if broadcast:
                        receivers.append(receiver)
                    for listener in wilds:
                        listener(receiver, packet)
                    for listener in overhearers:
                        listener(receiver, packet)
                    if broadcast:
                        handler = self._handlers[receiver].get(kind)
                        if handler is not None:
                            handler(receiver, packet)
            if broadcast or dst in dead:
                return
            # Adjacency rows are sorted: one bisection finds the link.
            position = bisect_left(neighbors, dst)
            if position == len(neighbors) or neighbors[position] != dst:
                return  # destination out of range: the frame dies in the air
            edge = start + position
            probability = loss[edge]
            if probability > 0.0:
                if not coins:
                    coins.extend(self._loss_rng.random(4096).tolist())
                    coins.reverse()
                draw = coins.pop()
                if draw < probability:
                    if share is not None and draw < probability * share[edge]:
                        collided += 1
                    else:
                        dropped += 1
                    return
            delivered += 1
            self.counters.record_rx(dst, kind, packet.size_bytes)
            if wild:
                for listener in self._wild_overhear.get(dst, ()):
                    listener(dst, packet)
            if kind_listeners is not None:
                for listener in kind_listeners.get(dst, ()):
                    listener(dst, packet)
            handler = self._handlers[dst].get(kind)
            if handler is not None:
                handler(dst, packet)
        finally:
            if receivers:
                self.counters.record_rx_many(receivers, kind, packet.size_bytes)
            stats = self._stats
            stats.deliveries += delivered
            stats.collisions += collided
            stats.ambient_losses += dropped

    # -- receiving ----------------------------------------------------------------

    def register_handler(self, node_id: int, kind: str, handler: PacketHandler) -> None:
        """Route addressed ``kind`` frames at ``node_id`` to ``handler``."""
        if not kind:
            raise SimulationError("handler kind must be non-empty")
        self._handlers[node_id][kind] = handler

    def register_overhear(
        self,
        node_id: int,
        listener: OverhearListener,
        kinds: Optional[Sequence[str]] = None,
    ) -> OverhearListener:
        """Attach a promiscuous listener at ``node_id``; returns
        ``listener``, for :meth:`remove_overhear`.

        With a ``kinds`` hint the listener is only offered frames of
        those kinds (the backend exploits the hint to skip fan-out);
        without one it sees every frame audible at the node, exactly
        like the DES — at DES-like cost for the kinds involved.
        """
        if kinds is None:
            self._wild_overhear.setdefault(node_id, []).append(listener)
            self._wild_count += 1
            return listener
        for kind in kinds:
            self._kind_overhear.setdefault(kind, {}).setdefault(
                node_id, []
            ).append(listener)
        return listener

    def remove_overhear(self, node_id: int, listener: OverhearListener) -> None:
        """Detach ``listener`` from ``node_id`` (every kind it was
        registered for); every other listener stays."""
        self._wild_count -= drop_listener(self._wild_overhear, node_id, listener)
        for by_node in self._kind_overhear.values():
            drop_listener(by_node, node_id, listener)

    # -- lifecycle / accounting ----------------------------------------------------

    def fail_node(self, node_id: int) -> None:
        """Crash-stop a sensor (fail-silent), as in the DES backend."""
        if not 0 <= node_id < self._num_nodes:
            raise SimulationError(f"unknown node {node_id}")
        # Settle the energy ledger first: rx bytes banked while the node
        # was alive must still be charged to it.
        self._flush_rx_energy()
        self._dead.add(node_id)
        if self.sim.trace.on:
            self.sim.trace.emit("fluid.kill", "node %(node)s crashed", node=node_id)

    def is_failed(self, node_id: int) -> bool:
        """True if the node was crash-stopped."""
        return node_id in self._dead

    def _bank_rx(
        self, senders: np.ndarray = _NO_ROWS, num_bytes: np.ndarray = _NO_ROWS
    ) -> None:
        """Bank the staged per-frame rows, then ``num_bytes[i]`` against
        each ``senders[i]``, keeping first-bank order."""
        rows = self._rx_rows
        if rows:
            flat = np.array(rows, dtype=np.int64)
            rows.clear()
            senders = np.concatenate((flat[0::2], senders))
            num_bytes = np.concatenate((flat[1::2], num_bytes))
        if senders.size:
            new = first_seen(senders, self._rx_banked)
            if new.size:
                self._rx_order.append(new)
            np.add.at(self._rx_bank, senders, num_bytes)

    def _flush_rx_energy(self) -> None:
        """Charge banked receive bytes to each sender's live neighbors.

        Expected-value accounting: the DES charges rx energy only for
        clean receptions, so each neighbor is charged ``bytes * (1 -
        link loss probability)`` rather than the raw byte total. The
        charges are staged as one batch, senders in first-bank order and
        each sender's neighbors in adjacency order."""
        self._bank_rx()
        if not self._rx_order:
            return
        senders = np.concatenate(self._rx_order)
        self._rx_order.clear()
        owed = self._rx_bank[senders]
        self._rx_bank[senders] = 0
        self._rx_banked[senders] = False
        starts = self._indptr[senders]
        degrees = self._indptr[senders + 1] - starts
        # Edge ids of each sender's CSR row, rows in sender order.
        offsets = np.cumsum(degrees) - degrees
        edges = np.repeat(starts - offsets, degrees) + np.arange(int(degrees.sum()))
        receivers = self._indices[edges]
        owed = np.repeat(owed, degrees)
        if self._dead:
            alive = ~np.isin(receivers, list(self._dead))
            receivers, owed, edges = receivers[alive], owed[alive], edges[alive]
        energy = self.energy
        energy.charge_columns(
            receivers,
            energy.rx_j_per_byte * (owed * (1.0 - self._edge_loss_contended[edges])),
        )

    def flush(self) -> None:
        """No-op: the per-frame path resolves each frame on its own event.

        Part of the transport seam so protocol phases can mark burst
        boundaries unconditionally; only the bulk backend acts on it."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(nodes={self.deployment.num_nodes}, "
            f"range={self.radio.range_m}m)"
        )


class BulkFluidTransport(FluidTransport):
    """Fluid backend resolving frames in vectorized macro-event batches.

    Same analytic channel model as :class:`FluidTransport` — the same
    link table, congestion gating, and delay law — but
    the hot path is restructured around two batch boundaries:

    * **Seal.** Emitted frames accumulate in a burst list, each with
      its transmit instant. The burst is sealed either explicitly —
      protocol senders call :meth:`flush` at their burst boundary (the
      end of a share spray, a flood rebroadcast) — or lazily by the
      next resolve tick. Sealing draws *one* vectorized access-jitter
      block (stream ``fluid.bulk.delay``, in frame emission order),
      runs the per-cell contention gate, records tx accounting, and
      queues the frames for their resolve tick. Each frame keys up
      relative to its own transmit instant, so lazy and eager sealing
      sample the same timeline.
    * **Resolve.** Frames resolve on a tick grid
      (``FluidParams.bulk_tick_s``): one
      :meth:`~repro.sim.kernel.Simulator.schedule_batch` macro-event
      per tick with traffic resolves every frame due at its fire time —
      CSR fan-out expansion (one edge lookup for a unicast nobody
      overhears), candidate masking (addressed receiver, kind/wildcard
      listeners, live nodes), one vectorized loss block (stream
      ``fluid.bulk.loss``, in (delivery, adjacency) order over
      candidate pairs), stats/counter accumulation as array ops, then
      one Python pass dispatching handlers over the surviving
      (receiver, frame) pairs.

    A :meth:`send_many` batch nobody can observe is only *logged*, and
    the log is settled (sealed and resolved) in one pass; see
    :meth:`send_many` and :meth:`_settle`.

    Determinism contract (mirrors the batched share backend): a seeded
    bulk run is exactly reproducible, and coherence with the DES holds
    at the same tolerance bars as the per-frame fluid path — but the
    bulk path is **not** byte-identical to per-frame fluid (draws come
    from dedicated ``fluid.bulk.*`` streams, and handler callbacks fire
    at the batch horizon rather than each frame's own delivery instant;
    the quantization is bounded by jitter + airtime, ~6 ms). The
    per-frame path stays byte-identical and remains the default.
    Divergences are documented in ``docs/TRANSPORT.md``.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        num_nodes = self._num_nodes
        # Burst (unsealed frames, each with its transmit instant) and
        # the resolve queue (sealed frames awaiting their tick): array
        # runs in seal order (:data:`_Chunk`), joined once per resolve.
        # A sealed per-frame burst is staged as row tuples and becomes a
        # run only at the next resolve or sealed ``send_many``, so a
        # flood pays no numpy set-up per burst. ``send_many`` runs carry
        # no Packets; one is built iff a handler or listener needs it.
        self._burst: List[Tuple[Packet, float, float]] = []
        self._staged: List[Tuple[float, int, int, bool, int, int, Packet]] = []
        self._chunks: List[_Chunk] = []
        #: kind -> its code in the queue's kind column, first-queued order.
        self._kind_codes: Dict[str, int] = {}
        # Replay log of unobservable send_many calls and their latest
        # delivery bound; while it holds rows, burst and batch are empty.
        self._log: List[_Call] = []
        self._log_rows = 0
        self._log_latest = -math.inf
        self.counters.before_read = self._settle
        # Sorted ``src * N + dst`` key per edge (plus a sentinel), for
        # one-searchsorted unicast edge lookups.
        edge_src = np.repeat(
            np.arange(num_nodes, dtype=np.int64), self.deployment.links.degrees()
        )
        self._edge_key = np.append(
            edge_src * num_nodes + self._indices, np.iinfo(np.int64).max
        )
        # Node id -> contention cell, as an array for the bulk path, and
        # the kinds some node ever registered a handler for (a kind
        # nobody handles skips the dispatch pass and may be logged).
        self._cell_of = np.array(self._tx_cell, dtype=np.int64)
        self._handled_kinds: Set[str] = set()
        self._flush_horizon = -math.inf
        self._tick_s = self.params.bulk_tick_s
        self._dead_mask = np.zeros(num_nodes, dtype=bool)
        # Receiver masks for candidate selection, invalidated on
        # listener registration changes.
        self._kind_mask_cache: Dict[str, np.ndarray] = {}
        self._wild_mask = np.zeros(num_nodes, dtype=bool)
        #: kind -> its columnar handler (see :meth:`register_columns`).
        self._columns: Dict[str, ColumnHandler] = {}
        # Broadcasts keyed up at future instants (see broadcast_later):
        # the rows, the kinds they index, the seqs of the rows standing
        # on the heap, and the kernel's cancel count when they were added.
        self._keyups: Optional[_KeyUps] = None
        self._keyup_kinds: List[str] = []
        self._keyups_placed: Set[int] = set()
        self._keyups_cancelled = 0

    # -- sending ----------------------------------------------------------------

    def _schedule_tick(self, latest: float) -> None:
        """Schedule a resolve macro-event at the first tick after instant
        ``latest``, unless one at or after it is already pending."""
        tick = (math.floor(latest / self._tick_s) + 1) * self._tick_s
        if tick > self._flush_horizon:
            self._flush_horizon = tick
            self.sim.schedule_batch(tick - self.sim.now, self._resolve_batch, ())

    def _transmit(self, packet: Packet) -> None:
        src = packet.src
        if not 0 <= src < self._num_nodes:
            raise SimulationError(f"unknown source node {src}")
        if src in self._dead:
            # Same contract as the per-frame paths: a crashed radio keys
            # up nothing and its non-transmission is not counted.
            self._trace_dead_tx(src, packet.kind)
            return
        if self._log:
            self._settle()
        now = self.sim.now
        airtime = self.radio.airtime(packet)
        self._burst.append((packet, now, airtime))
        # Frames resolve on a tick grid: the frame rides the next
        # macro-event at or after its latest possible delivery instant.
        # One schedule_batch per *tick with traffic* — quiet ticks cost
        # nothing, busy ticks absorb every frame due in their window.
        self._schedule_tick(now + self.params.access_jitter_s + airtime)

    def flush(self) -> None:
        """Settle the replay log and seal the pending burst now
        (idempotent, cheap when empty).

        Protocol senders call this at burst boundaries (end of a share
        spray, after a flood rebroadcast) so the burst's tx accounting
        lands at its emission instant and its jitter draws form one
        block. Unsealed frames are otherwise sealed lazily by the next
        resolve tick — not calling flush is never incorrect."""
        self._settle()
        if self._burst:
            self._seal_burst()

    def _seal_burst(self) -> None:
        burst = self._burst
        if not burst:
            return
        self._burst = []
        dead = self._dead
        if dead:
            # A sender that died between emission and seal never keyed
            # up: its frames are dropped *before any draw*, so later
            # frames sample the exact same stream positions as in a run
            # where the dead node never sent (fail-silent, uncounted).
            alive = [entry for entry in burst if entry[0].src not in dead]
            if len(alive) != len(burst) and self.sim.trace.on:
                for packet, _, _ in burst:
                    if packet.src in dead:
                        self.sim.trace.emit(
                            "fluid.bulk.dead_drop",
                            "dropped queued frame from dead node %(node)s",
                            node=packet.src,
                            kind=packet.kind,
                        )
            burst = alive
            if not burst:
                return
        count = len(burst)
        jitter_s = self.params.access_jitter_s
        record_tx = self.counters.record_tx
        account_tx = self.energy.account_tx
        bank = self._rx_rows.append
        tx_cell = self._tx_cell
        busy = self._busy_until
        stage = self._staged.append
        kind_codes = self._kind_codes
        # One vectorized jitter block per seal; draw order == frame
        # emission order (the documented contract, see uniform_block).
        # Each frame keys up relative to its own transmit instant, so
        # sealing lazily at the resolve tick samples the same timeline
        # as sealing eagerly at flush().
        coins = self.sim.rng.uniform_block("fluid.bulk.delay", count).tolist()
        for position, (packet, tx_time, airtime) in enumerate(burst):
            src = packet.src
            size = packet.size_bytes
            record_tx(src, packet.kind, size)
            account_tx(src, size)
            bank(src)
            bank(size)
            keyup = tx_time + coins[position] * jitter_s
            cell = tx_cell[src]
            contended = keyup < busy[cell]
            end = keyup + airtime
            if end > busy[cell]:
                busy[cell] = end
            code = kind_codes.setdefault(packet.kind, len(kind_codes))
            stage((end, src, packet.dst, contended, code, size, packet))
        self._stats.transmissions += count
        if len(self._rx_rows) >= FOLD_AT:
            self._bank_rx()

    def _queued(self) -> bool:
        """True if sealed frames await a resolve tick."""
        return bool(self._staged or self._chunks)

    def _unstage(self) -> None:
        """Append the staged per-frame rows to the queue as one run."""
        if self._staged:
            *columns, packets = zip(*self._staged)
            self._staged = []
            packets = np.array(packets, dtype=object)
            self._chunks.append((*(np.array(column) for column in columns), packets))

    def _queue(self) -> Optional[_Chunk]:
        """The resolve queue joined into one run, or None if empty."""
        self._unstage()
        chunks = self._chunks
        if len(chunks) > 1:
            chunks[:] = [tuple(np.concatenate(column) for column in zip(*chunks))]
        return chunks[0] if chunks else None

    def send_many(
        self,
        kind: str,
        src: Sequence[int],
        dst: Sequence[int],
        size_bytes: Sequence[int],
    ) -> None:
        """Vectorized bulk submission of ``len(src)`` payload-free frames
        keyed up at the current instant: accounting-equivalent to one
        :meth:`send`/:meth:`broadcast` per row followed by :meth:`flush`.
        Any unsealed per-frame burst is sealed first so the
        ``fluid.bulk.delay`` stream stays in frame emission order;
        within the batch, draws follow row order.

        A batch nobody can observe is only logged while no sealed frame
        awaits its tick; the log is settled once it holds
        :data:`_LOG_ROWS` rows and a batch arrives at a new instant, or
        before anything else happens or is read (see :meth:`_settle`)."""
        if self._burst:
            self._seal_burst()
        src_arr, dst_arr, sizes = send_many_columns(src, dst, size_bytes)
        if src_arr.size == 0:
            return
        if int(src_arr.min()) < 0 or int(src_arr.max()) >= self._num_nodes:
            raise SimulationError("send_many: unknown source node in batch")
        if self._dead:
            alive = ~self._dead_mask[src_arr]
            if not bool(alive.all()):
                # Same contract as the per-frame paths: dead radios key
                # up nothing, uncounted, and consume no jitter draw.
                if self.sim.trace.on:
                    for node in src_arr[~alive].tolist():
                        self._trace_dead_tx(node, kind)
                src_arr = src_arr[alive]
                dst_arr = dst_arr[alive]
                sizes = sizes[alive]
                if src_arr.size == 0:
                    return
        now = self.sim.now
        radio = self.radio
        longest = radio.turnaround_s + (8.0 * int(sizes.max())) / radio.bitrate_bps
        latest = now + self.params.access_jitter_s + longest
        call = (now, kind, src_arr, dst_arr, sizes)
        if self._log_rows >= _LOG_ROWS and now > self._log[-1][0]:
            self._settle()
        if self._queued() or self._observable(kind):
            self._settle()
            self._seal_calls([call], latest)
            return
        self._log.append(call)
        self._log_rows += int(src_arr.size)
        self._log_latest = max(self._log_latest, latest)

    def _observable(self, kind: str) -> bool:
        """True if resolving a ``kind`` frame could call anyone."""
        return bool(
            self._wild_count
            or kind in self._handled_kinds
            or self._kind_overhear.get(kind)
        )

    def _seal_calls(self, calls: List[_Call], latest: float) -> None:
        """Seal ``send_many`` calls into the batch exactly as one call at
        a time would (see :meth:`_seal_rows`); ticks for ``latest`` if in
        flight."""
        rows = [call[2].size for call in calls]
        kinds = list(dict.fromkeys(call[1] for call in calls))
        end = self._seal_rows(
            np.repeat([call[0] for call in calls], rows),
            np.repeat(np.arange(len(calls), dtype=np.int64), rows),
            kinds,
            np.repeat([kinds.index(call[1]) for call in calls], rows),
            np.concatenate([call[2] for call in calls]),
            np.concatenate([call[3] for call in calls]),
            np.concatenate([call[4] for call in calls]),
            np.empty(sum(rows), dtype=object),  # all None
        )
        if float(end.max()) > self.sim.now:
            self._schedule_tick(latest)

    def _seal_rows(
        self,
        instants: np.ndarray,
        call_of: Optional[np.ndarray],
        kinds: List[str],
        kind_of: np.ndarray,
        src_arr: np.ndarray,
        dst_arr: np.ndarray,
        sizes: np.ndarray,
        payloads: np.ndarray,
    ) -> np.ndarray:
        """Seal rows into the queue exactly as one send per row at its
        instant would: tx counters per kind (``kinds[kind_of[i]]``, kinds
        in first-appearance order), energy and rx bank per call
        (``call_of``, or one call per row if None) and ascending sender,
        one jitter block in row order keyed at each row's instant, the
        contention gate. Returns each row's delivery instant."""
        count = int(src_arr.size)
        kind_codes = self._kind_codes
        codes = np.array(
            [kind_codes.setdefault(kind, len(kind_codes)) for kind in kinds],
            dtype=np.int64,
        )[kind_of]
        for index, kind in enumerate(kinds):
            in_kind = kind_of == index
            self.counters.record_tx_columns(kind, src_arr[in_kind], 1, sizes[in_kind])
        energy = self.energy
        if call_of is None:
            energy.charge_columns(src_arr, energy.tx_j_per_byte * sizes)
            # Staged like per-frame seals: banked at the next fold.
            self._rx_rows.extend(np.column_stack((src_arr, sizes)).ravel().tolist())
            if len(self._rx_rows) >= FOLD_AT:
                self._bank_rx()
        else:
            keys, inverse = np.unique(
                call_of * self._num_nodes + src_arr, return_inverse=True
            )
            byte_sums = np.bincount(inverse, weights=sizes.astype(np.float64))
            senders = keys % self._num_nodes
            energy.charge_columns(senders, energy.tx_j_per_byte * byte_sums)
            self._bank_rx(senders, byte_sums.astype(np.int64))
        self._stats.transmissions += count
        radio = self.radio
        airtime = radio.turnaround_s + (8.0 * sizes) / radio.bitrate_bps
        coins = self.sim.rng.uniform_block("fluid.bulk.delay", count)
        keyup = instants + coins * self.params.access_jitter_s
        end = keyup + airtime
        contended = _contention_gate(
            self._cell_of[src_arr], keyup, end, self._busy_until
        )
        self._unstage()  # staged per-frame rows were sealed first
        self._chunks.append((end, src_arr, dst_arr, contended, codes, sizes, payloads))
        return end

    def broadcast_later(
        self,
        kind: str,
        src: Sequence[int],
        delays: Sequence[float],
        size_bytes: Sequence[int],
        payloads: Sequence[Mapping[str, Any]],
    ) -> None:
        """Key up one local broadcast per row, ``delays[i]`` seconds from
        now: the same draws, books, resolve ticks and kernel counts as one
        kernel timer per row, scheduled now in row order, that calls
        ``broadcast(src[i], kind, payloads[i], size_bytes=size_bytes[i])``
        and then :meth:`flush` — without a heap entry or a one-frame seal
        per row.

        The rows take their kernel keys now (see
        :meth:`~repro.sim.kernel.Simulator.reserve`) and wait, sorted by
        key. When the kernel reaches the earliest, that row and every
        later one due before the kernel's next event key up, each at its
        own instant, and are sealed as one burst (:meth:`_key_up`), so no
        other event sees them unsealed. A sender dead at its instant keys
        up nothing and draws no coin."""
        src_arr, _, sizes = send_many_columns(
            src, np.full(len(src), BROADCAST), size_bytes
        )
        delays = np.asarray(delays, dtype=np.float64)
        if delays.shape != src_arr.shape:
            raise SimulationError("broadcast_later: delays and src differ in length")
        count = int(src_arr.size)
        if count == 0:
            return
        if not bool((delays >= 0).all()):  # NaN fails too
            raise ScheduleInPastError("broadcast_later: negative or NaN delay")
        if int(src_arr.min()) < 0 or int(src_arr.max()) >= self._num_nodes:
            raise SimulationError("broadcast_later: unknown source node")
        sim = self.sim
        if sim.stats.cancelled != self._keyups_cancelled:
            # discard_pending dropped the pending rows' kernel keys.
            self._keyups, self._keyups_placed = None, set()
            self._keyups_cancelled = sim.stats.cancelled
        first = sim.reserve(count)
        times = sim.now + delays
        radio = self.radio
        airtime = radio.turnaround_s + (8.0 * sizes) / radio.bitrate_bps
        latest = times + self.params.access_jitter_s + airtime
        if kind not in self._keyup_kinds:
            self._keyup_kinds.append(kind)
        objects = np.empty(count, dtype=object)
        objects[:] = payloads
        rows = (
            times,
            np.arange(first, first + count, dtype=np.int64),
            src_arr,
            sizes,
            np.full(count, self._keyup_kinds.index(kind), dtype=np.int64),
            latest,
            (np.floor(latest / self._tick_s) + 1) * self._tick_s,
            objects,
        )
        if self._keyups is not None:
            rows = tuple(map(np.concatenate, zip(self._keyups, rows)))
        order = np.lexsort((rows[1], rows[0]))
        self._keyups = tuple(column[order] for column in rows)
        self._place_keyup()

    def _place_keyup(self) -> None:
        """Stand the earliest pending key-up on the heap at its own key,
        unless it already stands there."""
        times, seqs = self._keyups[:2]
        seq = int(seqs[0])
        if seq not in self._keyups_placed:
            self._keyups_placed.add(seq)
            self.sim.schedule_at(float(times[0]), self._key_up, (), seq)

    def _key_up(self) -> None:
        """Kernel event at the earliest pending key-up's own key: key it
        up, then every later one due before the kernel's next event
        (:meth:`~repro.sim.kernel.Simulator.claim_many`), each at its own
        instant, and seal the live ones as one burst after any frames
        still unsealed."""
        rows = self._keyups
        times, seqs, src, sizes, kind_of, latest, ticks, payloads = rows
        self._keyups_placed.discard(int(seqs[0]))
        live = ~self._dead_mask[src] if self._dead else None
        trace_dead = live is not None and self.sim.trace.on and not bool(live.all())
        # What the first row's broadcast and flush do, in their order.
        if trace_dead and not live[0]:
            self._trace_dead_tx(int(src[0]), self._keyup_kinds[kind_of[0]])
        if self._log:
            self._settle()
        if self._burst:
            self._seal_burst()
        total = int(times.size)
        claimed, row = 1, 0
        while True:
            # Row ``row`` is claimed and the clock stands at its instant:
            # trace its dead sender, or ask for its resolve tick.
            if live is None or live[row]:
                self._schedule_tick(float(latest[row]))
            elif row:
                self._trace_dead_tx(int(src[row]), self._keyup_kinds[kind_of[row]])
            if claimed == total:
                break
            # The next row that acts at its instant: a live one whose tick
            # is not yet scheduled, or a dead one to trace.
            acts = ticks[claimed:] > self._flush_horizon
            if live is not None:
                acts &= live[claimed:]
                if trace_dead:
                    acts |= ~live[claimed:]
            hits = np.flatnonzero(acts)
            stop = claimed + int(hits[0]) + 1 if hits.size else total
            claimed += self.sim.claim_many(times[claimed:stop], seqs[claimed:stop])
            if claimed < stop or not hits.size:
                break
            row = stop - 1
        keep = np.arange(claimed) if live is None else np.flatnonzero(live[:claimed])
        if keep.size:
            used, first = np.unique(kind_of[keep], return_index=True)
            used = used[np.argsort(first)]
            local = np.zeros(len(self._keyup_kinds), dtype=np.int64)
            local[used] = np.arange(used.size)
            self._seal_rows(
                times[keep],
                None,
                [self._keyup_kinds[index] for index in used.tolist()],
                local[kind_of[keep]],
                src[keep],
                np.full(keep.size, BROADCAST, dtype=np.int64),
                sizes[keep],
                payloads[keep],
            )
        if claimed == total:
            self._keyups = None
        else:
            self._keyups = tuple(column[claimed:] for column in rows)
            self._place_keyup()

    def _settle(self) -> None:
        """Seal the replay log and resolve what is already due, crediting
        the kernel as the skipped resolve ticks would have."""
        if self._log:
            resolved = self._resolve_batch()
            stats = self.sim.stats
            stats.scheduled += resolved
            stats.fired += resolved

    # -- delivery ---------------------------------------------------------------

    def _kind_mask(self, kind: str) -> np.ndarray:
        """Boolean receiver mask: nodes with listeners for ``kind``."""
        mask = self._kind_mask_cache.get(kind)
        if mask is None:
            mask = np.zeros(self._num_nodes, dtype=bool)
            by_node = self._kind_overhear.get(kind)
            if by_node:
                mask[list(by_node)] = True
            self._kind_mask_cache[kind] = mask
        return mask

    def _resolve_batch(self) -> int:
        """Resolve tick: seal what is pending, resolve what is due, return
        the frame count (see :meth:`~repro.sim.kernel.Simulator.schedule_batch`)."""
        if self._log:
            log, latest = self._log, self._log_latest
            self._log, self._log_rows, self._log_latest = [], 0, -math.inf
            self._seal_calls(log, latest)
        if self._burst:
            self._seal_burst()
        count = self._resolve_due()
        self._ensure_resolvable()
        return count

    def _resolve_due(self) -> int:
        queue = self._queue()
        if queue is None:
            return 0
        times, src, dst, contended, codes, sizes, packets = queue
        due = times <= self.sim.now
        if not due.any():
            return 0
        keep = ~due
        self._chunks = [tuple(column[keep] for column in queue)] if keep.any() else []
        # Deterministic resolution order: (delivery instant, seal order);
        # ``position`` maps each due frame back to its queue slot.
        position = np.flatnonzero(due)
        position = position[np.argsort(times[position], kind="stable")]
        count = int(position.size)
        src = src[position]
        dst = dst[position]
        contended = contended[position]
        codes = codes[position]
        sizes = sizes[position]

        # Candidate pairs: broadcast frames reach every neighbor; a
        # unicast reaches its addressee plus any neighbor with a
        # matching kind/wildcard listener. Dead receivers are excluded
        # *before* the draw (they consume no coin, as per frame).
        is_broadcast = dst == BROADCAST
        names = list(self._kind_codes)
        kinds = {
            names[code]: np.flatnonzero(codes == code)
            for code in np.flatnonzero(np.bincount(codes)).tolist()
        }
        kind_overhear = self._kind_overhear
        overheard = [kind for kind in kinds if kind_overhear.get(kind)]
        fan_out = is_broadcast | bool(self._wild_count)
        for kind in overheard:
            fan_out[kinds[kind]] = True
        # A fan-out frame expands over its sender's CSR row; any other
        # unicast is one edge lookup (no pair if the addressee is out of
        # range). Pairs stay in (frame, adjacency position) order.
        indptr = self._indptr
        first = indptr[src]
        pairs_of = np.where(fan_out, indptr[src + 1] - first, 0)
        direct = np.flatnonzero(~fan_out)
        if direct.size:
            wanted = src[direct] * self._num_nodes + dst[direct]
            slot = np.searchsorted(self._edge_key, wanted)
            pairs_of[direct] = self._edge_key[slot] == wanted
            first[direct] = slot
        total_pairs = int(pairs_of.sum())
        if total_pairs == 0:
            return count
        frame_of = np.repeat(np.arange(count, dtype=np.int64), pairs_of)
        starts = np.zeros(count, dtype=np.int64)
        np.cumsum(pairs_of[:-1], out=starts[1:])
        edge = first[frame_of] + (
            np.arange(total_pairs, dtype=np.int64) - starts[frame_of]
        )
        recv = self._indices[edge]

        pair_broadcast = is_broadcast[frame_of]
        candidates = pair_broadcast | (recv == dst[frame_of])
        for kind in overheard:
            candidates |= (
                (codes[frame_of] == self._kind_codes[kind])
                & ~pair_broadcast
                & self._kind_mask(kind)[recv]
            )
        if self._wild_count:
            candidates |= ~pair_broadcast & self._wild_mask[recv]
        if self._dead:
            candidates &= ~self._dead_mask[recv]

        pair_idx = np.flatnonzero(candidates)
        pair_frame = frame_of[pair_idx]
        pair_edge = edge[pair_idx]
        pair_recv = recv[pair_idx]
        pair_count = pair_idx.size
        if pair_count == 0:
            return count

        # One vectorized loss block per resolve; draw order == candidate
        # pairs in (delivery, adjacency-position) order. Unlike the
        # per-frame path, zero-probability pairs consume a coin too —
        # the streams are disjoint, so only bulk-internal reproducibility
        # matters, and the uniform block keeps the hot path branch-free.
        pair_contended = contended[pair_frame]
        probability = np.where(
            pair_contended,
            self._edge_loss_contended[pair_edge],
            self._edge_loss_free[pair_edge],
        )
        draws = self.sim.rng.uniform_block("fluid.bulk.loss", int(pair_count))
        lost = draws < probability
        share = np.where(pair_contended, self._edge_share[pair_edge], 0.0)
        collided = draws < probability * share
        num_collisions = int(np.count_nonzero(collided))
        self._stats.collisions += num_collisions
        self._stats.ambient_losses += int(np.count_nonzero(lost)) - num_collisions

        survivors = ~lost
        surv_frame = pair_frame[survivors]
        surv_recv = pair_recv[survivors]
        self._stats.deliveries += int(surv_frame.size)

        # Addressed receptions (broadcast neighbors + unicast addressees)
        # hit the message counters with one columnar record per kind.
        addressed = pair_broadcast[pair_idx][survivors] | (
            surv_recv == dst[surv_frame]
        )
        if addressed.any():
            rx_frame = surv_frame[addressed]
            rx_recv = surv_recv[addressed]
            rx_bytes = sizes[rx_frame]
            rx_codes = codes[rx_frame]
            for kind in kinds:
                in_kind = rx_codes == self._kind_codes[kind]
                self.counters.record_rx_columns(
                    kind, rx_recv[in_kind], 1, rx_bytes[in_kind]
                )

        # Frames of a kind with no registered handler and no matching
        # listener have nobody to call: skip the per-pair dispatch pass
        # for them (loss draws, stats, and rx accounting above already
        # happened). Their Packet objects — queued as None by
        # send_many — are materialized only if dispatch needs them.
        if self._wild_count:
            disp_frame, disp_recv = surv_frame, surv_recv
        else:
            wanted = np.zeros(count, dtype=bool)
            for kind, frame_ids in kinds.items():
                if self._observable(kind):
                    wanted[frame_ids] = True
            pair_wanted = wanted[surv_frame]
            disp_frame = surv_frame[pair_wanted]
            disp_recv = surv_recv[pair_wanted]
        # A columnar kind's addressed pairs go to its handler in one call,
        # after the per-pair pass; that pass keeps its pairs only for
        # their listeners.
        handoffs = []
        for kind, handler in self._columns.items():
            if kind not in kinds:
                continue
            mine = codes[disp_frame] == self._kind_codes[kind]
            addressed = mine & (is_broadcast[disp_frame] | (disp_recv == dst[disp_frame]))
            if addressed.any():
                handoffs.append(
                    (handler, src[disp_frame[addressed]], disp_recv[addressed])
                )
            if not (self._wild_count or kind_overhear.get(kind)):
                disp_frame, disp_recv = disp_frame[~mine], disp_recv[~mine]
        if disp_frame.size:
            frame_packets = {}
            for frame in np.unique(disp_frame).tolist():
                packet = packets[position[frame]]
                if type(packet) is not Packet:
                    packet = Packet(
                        src=int(src[frame]),
                        dst=int(dst[frame]),
                        kind=names[codes[frame]],
                        payload=packet or {},
                        size_bytes=int(sizes[frame]),
                    )
                frame_packets[frame] = packet
            self._dispatch(disp_frame.tolist(), disp_recv.tolist(), frame_packets)
        for handler, pair_src, pair_recv in handoffs:
            handler(pair_src, pair_recv)
        return count

    def _dispatch(
        self,
        surv_frame: List[int],
        surv_recv: List[int],
        packets: Mapping[int, Packet],
    ) -> None:
        """One pass over surviving (receiver, frame) pairs: listeners
        first, then the addressed handler — per-receiver ordering
        identical to the per-frame paths — unless the kind is columnar.
        Frames emitted by handlers during the pass schedule their own
        resolve ticks and are sealed lazily (or by an explicit flush)."""
        handlers = self._handlers
        kind_overhear = self._kind_overhear
        wild_overhear = self._wild_overhear
        columns = self._columns
        position = 0
        pair_count = len(surv_frame)
        while position < pair_count:
            frame = surv_frame[position]
            packet = packets[frame]
            kind = packet.kind
            dst = packet.dst
            broadcast = dst == BROADCAST
            handled = kind not in columns
            kind_listeners = kind_overhear.get(kind)
            wild = self._wild_count > 0
            while position < pair_count and surv_frame[position] == frame:
                receiver = surv_recv[position]
                position += 1
                if wild:
                    for listener in wild_overhear.get(receiver, ()):
                        listener(receiver, packet)
                if kind_listeners is not None:
                    for listener in kind_listeners.get(receiver, ()):
                        listener(receiver, packet)
                if handled and (broadcast or receiver == dst):
                    handler = handlers[receiver].get(kind)
                    if handler is not None:
                        handler(receiver, packet)

    def _ensure_resolvable(self) -> None:
        """Safety net against stranded frames: if queued frames remain
        but no future resolve tick is pending (possible only through
        float rounding at a tick boundary), schedule one at the latest
        queued delivery instant."""
        if self._flush_horizon <= self.sim.now:
            queue = self._queue()
            if queue is not None:
                self._schedule_tick(float(queue[0].max()))

    # -- receiving ----------------------------------------------------------------

    def register_handler(self, node_id: int, kind: str, handler: PacketHandler) -> None:
        self._settle()
        super().register_handler(node_id, kind, handler)
        self._handled_kinds.add(kind)

    def register_columns(self, kind: str, handler: ColumnHandler) -> None:
        """Make ``kind`` columnar: each resolve tick hands its surviving
        addressed ``kind`` pairs to ``handler(src, recv)`` in one call, as
        int64 arrays in dispatch order, after the tick's per-pair pass
        (where listeners still see each pair). Per-node handlers of
        ``kind`` are no longer called; a later call replaces ``handler``."""
        if not kind:
            raise SimulationError("handler kind must be non-empty")
        self._settle()
        self._columns[kind] = handler
        self._handled_kinds.add(kind)

    def register_overhear(
        self,
        node_id: int,
        listener: OverhearListener,
        kinds: Optional[Sequence[str]] = None,
    ) -> OverhearListener:
        self._settle()
        listener = super().register_overhear(node_id, listener, kinds)
        if kinds is None:
            self._wild_mask[node_id] = True
        else:
            for kind in kinds:
                self._kind_mask_cache.pop(kind, None)
        return listener

    def remove_overhear(self, node_id: int, listener: OverhearListener) -> None:
        self._settle()
        super().remove_overhear(node_id, listener)
        self._wild_mask[node_id] = node_id in self._wild_overhear
        self._kind_mask_cache.clear()

    # -- lifecycle / accounting ----------------------------------------------------

    def fail_node(self, node_id: int) -> None:
        super().fail_node(node_id)  # settles via _flush_rx_energy first
        self._dead_mask[node_id] = True

    def _flush_rx_energy(self) -> None:  # every energy read lands here
        self._settle()
        super()._flush_rx_energy()
