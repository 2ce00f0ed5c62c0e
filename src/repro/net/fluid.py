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
    Callable,
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

from repro.errors import SimulationError
from repro.metrics.counters import MessageCounters
from repro.net.energy import EnergyModel
from repro.net.packet import BROADCAST, Packet
from repro.net.radio import RadioParams
from repro.net.transport import (
    MediumStats,
    OverhearListener,
    PacketHandler,
    drop_listener,
)
from repro.topology.spatial import compact_cell_ids

#: One logged ``send_many`` call: (instant, kind, src, dst, size).
_Call = Tuple[float, str, np.ndarray, np.ndarray, np.ndarray]

#: Row bound of the bulk backend's replay log: a log this long is
#: settled when a batch arrives at a new instant (bounds its memory).
_LOG_ROWS = 4096


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


class _LazyRxEnergy(EnergyModel):
    """Energy ledger that defers receive-side charges.

    The fluid backend skips per-receiver Python callbacks for frames
    nobody parses, but the *radio* at every in-range node still spent
    receive energy. Charging ~degree dict entries per frame would undo
    the backend's speed advantage, so the transport accumulates pending
    rx bytes per sender and this ledger flushes them (one pass over the
    adjacency) before any read."""

    def __init__(self, flush: Callable[[], None], **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._flush = flush

    def spent(self, node_id: int) -> float:
        self._flush()
        return super().spent(node_id)

    def snapshot(self) -> dict:
        self._flush()
        return super().snapshot()

    def report(self):
        self._flush()
        return super().report()


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
        self.energy = _LazyRxEnergy(self._flush_rx_energy)
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
        #: sender -> rx bytes its neighbors owe (flushed lazily).
        self._pending_rx: Dict[int, int] = {}
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
        """Submit many pre-sized same-kind frames at the current instant.

        Row ``i`` is one frame from ``src[i]`` to ``dst[i]`` (or a local
        broadcast when ``dst[i]`` is :data:`BROADCAST`) of
        ``size_bytes[i]`` bytes, payload-free — the batch replay
        equivalent of one :meth:`send`/:meth:`broadcast` per row. The
        per-frame backends deliver exactly that loop; the bulk backend
        overrides this with a vectorized seal."""
        for row_src, row_dst, row_size in zip(src, dst, size_bytes):
            if row_dst == BROADCAST:
                self.broadcast(row_src, kind, None, size_bytes=row_size)
            else:
                self.send(row_src, row_dst, kind, None, size_bytes=row_size)

    def _transmit(self, packet: Packet) -> None:
        src = packet.src
        if not 0 <= src < self._num_nodes:
            raise SimulationError(f"unknown source node {src}")
        if src in self._dead:
            # Same contract as the DES: a crashed radio keys up nothing
            # and its non-transmission is not counted.
            self.sim.trace.emit(
                "fluid.dead_tx",
                "dead node %(node)s asked to send %(kind)s",
                node=src,
                kind=packet.kind,
            )
            return
        size = packet.size_bytes
        self.counters.record_tx(src, packet.kind, size)
        self.energy.account_tx(src, size)
        self._stats.transmissions += 1
        # Receive energy at every live in-range radio, deferred: the
        # bytes are banked against the sender and flushed on read.
        self._pending_rx[src] = self._pending_rx.get(src, 0) + size
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

    # -- delivery ---------------------------------------------------------------

    def _deliver(self, packet: Packet, contended: bool) -> None:
        """Resolve one frame over its sender's slice of the link table.

        One loss coin per live candidate receiver whose link can lose
        the frame (none where the probability is 0), drawn in adjacency
        order; a receiver that is dead when the pass reaches it draws
        none. Counts are summed per frame and booked even if a handler
        raises."""
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
        try:
            # Broadcast: every neighbor. Unicast: first any interested
            # overhearers among the sender's other neighbors, visited only
            # when someone registered for this kind (or a wildcard
            # listener exists) — ack/share/join traffic, which nobody
            # overhears, skips the pass — then the addressee.
            if broadcast or wild or kind_listeners is not None:
                record_rx = self.counters.record_rx
                size = packet.size_bytes
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
                        record_rx(receiver, kind, size)
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

    def _flush_rx_energy(self) -> None:
        """Charge banked receive bytes to each sender's live neighbors.

        Expected-value accounting: the DES charges rx energy only for
        clean receptions, so each neighbor is charged ``bytes * (1 -
        link loss probability)`` rather than the raw byte total."""
        if not self._pending_rx:
            return
        account_rx = self.energy.account_rx
        dead = self._dead
        loss = self._loss_contended
        for sender, total_bytes in self._pending_rx.items():
            start = self._row_start[sender]
            for edge, receiver in enumerate(self.adjacency[sender], start):
                if receiver not in dead:
                    account_rx(receiver, total_bytes * (1.0 - loss[edge]))
        self._pending_rx.clear()

    def flush(self) -> None:
        """No-op: the per-frame path resolves each frame on its own event.

        Part of the transport seam so protocol phases can mark burst
        boundaries unconditionally; only the bulk backend acts on it."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FluidTransport(nodes={self.deployment.num_nodes}, "
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
      appends the frames to the pending batch. Each frame keys up
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
        # batch (sealed frames awaiting their resolve tick), column-wise.
        # Kind and size ride their own columns so :meth:`send_many` can
        # queue payload-free frames without materializing Packets; the
        # packet column holds ``None`` for those, filled lazily iff a
        # handler or listener actually needs the object at dispatch.
        self._burst: List[Tuple[Packet, float, float]] = []
        self._q_time: List[float] = []
        self._q_src: List[int] = []
        self._q_dst: List[int] = []
        self._q_contended: List[bool] = []
        self._q_kind: List[int] = []
        #: kind -> its code in ``_q_kind``, in first-queued order.
        self._kind_codes: Dict[str, int] = {}
        self._q_size: List[int] = []
        self._q_packet: List[Optional[Packet]] = []
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
            self.sim.trace.emit(
                "fluid.dead_tx",
                "dead node %(node)s asked to send %(kind)s",
                node=src,
                kind=packet.kind,
            )
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
        pending = self._pending_rx
        tx_cell = self._tx_cell
        busy = self._busy_until
        q_time = self._q_time
        q_src = self._q_src
        q_dst = self._q_dst
        q_contended = self._q_contended
        q_kind = self._q_kind
        kind_codes = self._kind_codes
        q_size = self._q_size
        q_packet = self._q_packet
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
            pending[src] = pending.get(src, 0) + size
            keyup = tx_time + coins[position] * jitter_s
            cell = tx_cell[src]
            contended = keyup < busy[cell]
            end = keyup + airtime
            if end > busy[cell]:
                busy[cell] = end
            q_time.append(end)
            q_src.append(src)
            q_dst.append(packet.dst)
            q_contended.append(contended)
            q_kind.append(kind_codes.setdefault(packet.kind, len(kind_codes)))
            q_size.append(size)
            q_packet.append(packet)
        self._stats.transmissions += count

    def send_many(
        self,
        kind: str,
        src: Sequence[int],
        dst: Sequence[int],
        size_bytes: Sequence[int],
    ) -> None:
        """Vectorized bulk submission of ``len(src)`` payload-free frames
        keyed up at the current instant.

        Accounting-equivalent to one :meth:`send`/:meth:`broadcast` per
        row followed by :meth:`flush` — same tx counters, energy, banked
        rx bytes, contention gating, and resolve-tick scheduling — but
        paying one columnar counter record for the whole batch, one
        energy/rx-bank touch per distinct sender and one jitter block
        instead of per-frame Python.
        Any unsealed per-frame burst is sealed first so the
        ``fluid.bulk.delay`` stream stays in frame emission order;
        within the batch, draws follow row order.

        A batch nobody can observe is only logged while no sealed frame
        awaits its tick; the log is settled once it holds
        :data:`_LOG_ROWS` rows and a batch arrives at a new instant, or
        before anything else happens or is read (see :meth:`_settle`)."""
        if self._burst:
            self._seal_burst()
        src_arr = np.ascontiguousarray(src, dtype=np.int64)
        dst_arr = np.ascontiguousarray(dst, dtype=np.int64)
        sizes = np.ascontiguousarray(size_bytes, dtype=np.int64)
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
                        self.sim.trace.emit(
                            "fluid.dead_tx",
                            "dead node %(node)s asked to send %(kind)s",
                            node=node,
                            kind=kind,
                        )
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
        if self._q_time or self._observable(kind):
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
        a time would (energy and rx bank per call and ascending sender,
        jitter at each row's instant); ticks for ``latest`` if in flight."""
        rows = [call[2].size for call in calls]
        instants = np.repeat([call[0] for call in calls], rows)
        src_arr = np.concatenate([call[2] for call in calls])
        dst_arr = np.concatenate([call[3] for call in calls])
        sizes = np.concatenate([call[4] for call in calls])
        count = int(src_arr.size)
        by_kind: Dict[str, List[_Call]] = {}
        for call in calls:
            by_kind.setdefault(call[1], []).append(call)
        for kind, group in by_kind.items():
            self.counters.record_tx_columns(
                kind,
                np.concatenate([call[2] for call in group]),
                1,
                np.concatenate([call[4] for call in group]),
            )
        call_of = np.repeat(np.arange(len(calls), dtype=np.int64), rows)
        keys, inverse = np.unique(
            call_of * self._num_nodes + src_arr, return_inverse=True
        )
        byte_sums = np.bincount(inverse, weights=sizes.astype(np.float64))
        account_tx = self.energy.account_tx
        pending = self._pending_rx
        for node, node_bytes in zip(
            (keys % self._num_nodes).tolist(), byte_sums.astype(np.int64).tolist()
        ):
            account_tx(node, node_bytes)
            pending[node] = pending.get(node, 0) + node_bytes
        self._stats.transmissions += count
        radio = self.radio
        airtime = radio.turnaround_s + (8.0 * sizes) / radio.bitrate_bps
        coins = self.sim.rng.uniform_block("fluid.bulk.delay", count)
        keyup = instants + coins * self.params.access_jitter_s
        end = keyup + airtime
        # Per-cell contention gate in row order — the busy horizon is
        # loop-carried state per cell, so this stays a (tight) loop.
        busy = self._busy_until
        cells = self._cell_of[src_arr].tolist()
        keyup_list = keyup.tolist()
        end_list = end.tolist()
        contended = [False] * count
        for position, cell in enumerate(cells):
            horizon = busy[cell]
            if keyup_list[position] < horizon:
                contended[position] = True
            if end_list[position] > horizon:
                busy[cell] = end_list[position]
        self._q_time.extend(end_list)
        self._q_src.extend(src_arr.tolist())
        self._q_dst.extend(dst_arr.tolist())
        self._q_contended.extend(contended)
        kind_codes = self._kind_codes
        for call in calls:
            code = kind_codes.setdefault(call[1], len(kind_codes))
            self._q_kind.extend([code] * int(call[2].size))
        self._q_size.extend(sizes.tolist())
        self._q_packet.extend([None] * count)
        if float(end.max()) > self.sim.now:
            self._schedule_tick(latest)

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
        if not self._q_time:
            return 0
        times = np.array(self._q_time)
        due = times <= self.sim.now
        if not due.any():
            return 0
        src = np.array(self._q_src, dtype=np.int64)
        dst = np.array(self._q_dst, dtype=np.int64)
        contended = np.array(self._q_contended, dtype=bool)
        codes = np.array(self._q_kind, dtype=np.int64)
        sizes = np.array(self._q_size, dtype=np.int64)
        packets = self._q_packet
        keep = np.flatnonzero(~due)
        self._q_time = times[keep].tolist()
        self._q_src = src[keep].tolist()
        self._q_dst = dst[keep].tolist()
        self._q_contended = contended[keep].tolist()
        self._q_kind = codes[keep].tolist()
        self._q_size = sizes[keep].tolist()
        self._q_packet = [packets[i] for i in keep.tolist()]
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
        if disp_frame.size:
            frame_packets = {}
            for frame in np.unique(disp_frame).tolist():
                packet = packets[int(position[frame])]
                if packet is None:
                    packet = Packet(
                        src=int(src[frame]),
                        dst=int(dst[frame]),
                        kind=names[codes[frame]],
                        size_bytes=int(sizes[frame]),
                    )
                frame_packets[frame] = packet
            self._dispatch(disp_frame.tolist(), disp_recv.tolist(), frame_packets)
        return count

    def _dispatch(
        self,
        surv_frame: List[int],
        surv_recv: List[int],
        packets: Mapping[int, Packet],
    ) -> None:
        """One pass over surviving (receiver, frame) pairs: listeners
        first, then the addressed handler — per-receiver ordering
        identical to the per-frame paths. Frames emitted by handlers
        during the pass schedule their own resolve ticks and are sealed
        lazily (or by an explicit flush)."""
        handlers = self._handlers
        kind_overhear = self._kind_overhear
        wild_overhear = self._wild_overhear
        position = 0
        pair_count = len(surv_frame)
        while position < pair_count:
            frame = surv_frame[position]
            packet = packets[frame]
            kind = packet.kind
            dst = packet.dst
            broadcast = dst == BROADCAST
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
                if broadcast or receiver == dst:
                    handler = handlers[receiver].get(kind)
                    if handler is not None:
                        handler(receiver, packet)

    def _ensure_resolvable(self) -> None:
        """Safety net against stranded frames: if queued frames remain
        but no future resolve tick is pending (possible only through
        float rounding at a tick boundary), schedule one at the latest
        queued delivery instant."""
        if self._q_time and self._flush_horizon <= self.sim.now:
            self._schedule_tick(max(self._q_time))

    # -- receiving ----------------------------------------------------------------

    def register_handler(self, node_id: int, kind: str, handler: PacketHandler) -> None:
        self._settle()
        super().register_handler(node_id, kind, handler)
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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BulkFluidTransport(nodes={self.deployment.num_nodes}, "
            f"range={self.radio.range_m}m, queued={len(self._q_packet)})"
        )
