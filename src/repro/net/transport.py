"""The transport seam: what a protocol phase may assume about the network.

Every iCPDA phase (tree flood, cluster formation, share exchange,
report/verdict) is written against the :class:`Transport` protocol below
— *not* against the discrete-event :class:`~repro.net.stack.NetworkStack`
directly. Two implementations ship:

* ``"des"`` — the event-simulated :class:`~repro.net.stack.NetworkStack`
  (CSMA MAC, collision medium, promiscuous nodes). Bit-for-bit the
  behaviour the golden-hash determinism suite pins.
* ``"fluid"`` — :class:`~repro.net.fluid.FluidTransport`, which samples
  per-link loss and delay from closed-form distributions instead of
  event-simulating the medium. Orders of magnitude faster at large N;
  validated against the DES by the ``tests/analysis`` coherence suite.

The interface contract (delivery ordering, overhear semantics, failure
model, determinism guarantees per backend) is documented in
``docs/TRANSPORT.md``. This module deliberately imports neither backend
at module level: phases that depend only on the seam can be unit-tested
against an in-memory fake without pulling in the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.errors import SimulationError
from repro.net.packet import BROADCAST, HEADER_BYTES, Packet

#: Handler signature for addressed frames: ``handler(node_id, packet)``,
#: called with the receiving node's id.
PacketHandler = Callable[[int, Packet], None]
#: Listener signature for promiscuous (overheard) frames:
#: ``listener(node_id, packet)``, called with the overhearing node's id.
OverhearListener = Callable[[int, Packet], None]
#: Columnar handler signature: ``handler(src, recv)``, called once per
#: batch of addressed frames of its kind with the (sender, receiver)
#: pairs as int64 arrays (see ``BulkFluidTransport.register_columns``).
ColumnHandler = Callable[[np.ndarray, np.ndarray], None]


def drop_listener(
    by_node: Dict[int, List[OverhearListener]],
    node_id: int,
    listener: OverhearListener,
) -> int:
    """Remove ``listener`` from ``by_node[node_id]``, dropping the entry
    once it is empty; returns how many registrations went."""
    listeners = by_node.pop(node_id, [])
    kept = [other for other in listeners if other != listener]
    if kept:
        by_node[node_id] = kept
    return len(listeners) - len(kept)


def send_many_columns(
    src: Sequence[int], dst: Sequence[int], size_bytes: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One ``send_many`` call's columns as 1-D int64 arrays, checked alike
    on every backend: :class:`SimulationError` unless 1-D and of equal
    length, :class:`ValueError` (as ``Packet`` raises) for a size below
    :data:`~repro.net.packet.HEADER_BYTES`."""
    columns = tuple(
        np.ascontiguousarray(column, dtype=np.int64)
        for column in (src, dst, size_bytes)
    )
    shapes = [column.shape for column in columns]
    if len(set(shapes)) != 1 or len(shapes[0]) != 1:
        raise SimulationError(f"send_many: ragged or non-1-D columns {shapes}")
    smallest = int(columns[2].min()) if shapes[0][0] else HEADER_BYTES
    if smallest < HEADER_BYTES:
        raise ValueError(f"size_bytes={smallest} below header size {HEADER_BYTES}")
    return columns


def send_rows(
    transport: Transport,
    kind: str,
    src: Sequence[int],
    dst: Sequence[int],
    size_bytes: Sequence[int],
) -> None:
    """``send_many`` on a per-frame backend: one :meth:`Transport.send`
    or :meth:`Transport.broadcast` per row, with plain ``int`` fields."""
    rows = zip(*(column.tolist() for column in send_many_columns(src, dst, size_bytes)))
    for row_src, row_dst, row_size in rows:
        if row_dst == BROADCAST:
            transport.broadcast(row_src, kind, None, size_bytes=row_size)
        else:
            transport.send(row_src, row_dst, kind, None, size_bytes=row_size)


@dataclass
class MediumStats:
    """Aggregate channel statistics for a run, read as
    ``transport.medium.stats`` on every backend.

    The fluid backends book congestion losses in ``collisions`` and
    ambient + fading losses in ``ambient_losses``; their
    ``half_duplex_losses`` stays 0 (the model has no half-duplex
    effect)."""

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


class SimulatorLike(Protocol):
    """The slice of the event kernel the protocol phases actually use.

    Both backends expose the real :class:`~repro.sim.kernel.Simulator`
    here; the loopback test fake provides a tiny heap scheduler with the
    same surface.
    """

    @property
    def now(self) -> float: ...

    @property
    def rng(self) -> Any:
        """Named-stream RNG registry (``rng.stream(name)``)."""
        ...

    @property
    def trace(self) -> Any:
        """Structured trace log (``trace.emit(...)``, ``trace.on``)."""
        ...

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
    ) -> None: ...

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
    ) -> None: ...

    def run(self, until: float = ...) -> None: ...


@runtime_checkable
class Transport(Protocol):
    """Minimal network facade a protocol phase may depend on.

    Contract highlights (full version in ``docs/TRANSPORT.md``):

    * :meth:`send`/:meth:`broadcast` are fire-and-forget; delivery (or
      loss) happens later in virtual time via ``sim``.
    * Addressed frames reach the handler registered for their kind at the
      destination; every frame audible at a node is additionally offered
      to that node's overhear listeners *before* the addressed handler.
    * Handlers and listeners are called as ``callback(node_id, packet)``
      with the receiving node's id, so a phase registers one bound
      method per kind for every node instead of a closure per node.
    * ``register_overhear(..., kinds=...)`` is a filter *hint*: listeners
      must still tolerate other kinds (the DES backend delivers every
      audible frame; the fluid backend uses the hint to skip fan-out).
    * :meth:`neighbors` returns an interned tuple — per-frame callers
      must not mutate it and must not expect a fresh copy.
    * A failed node neither transmits (silently, uncounted) nor receives.
    """

    # -- identity / topology ------------------------------------------------

    @property
    def sim(self) -> SimulatorLike: ...

    @property
    def deployment(self) -> Any: ...

    def node_ids(self) -> Iterable[int]:
        """All node ids, in deterministic (ascending) order."""
        ...

    def neighbors(self, node_id: int) -> Tuple[int, ...]:
        """Nodes within radio range of ``node_id`` (interned tuple)."""
        ...

    def degree(self, node_id: int) -> int:
        """Number of radio neighbors of ``node_id``."""
        ...

    # -- sending ------------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        kind: str,
        payload: Optional[Mapping[str, Any]] = None,
        *,
        size_bytes: Optional[int] = None,
    ) -> Packet: ...

    def broadcast(
        self,
        src: int,
        kind: str,
        payload: Optional[Mapping[str, Any]] = None,
        *,
        size_bytes: Optional[int] = None,
    ) -> Packet: ...

    def send_many(
        self,
        kind: str,
        src: Sequence[int],
        dst: Sequence[int],
        size_bytes: Sequence[int],
    ) -> None:
        """Submit many pre-sized, payload-free frames of one kind, all
        keyed up at the current instant — row ``i`` is a frame from
        ``src[i]`` to ``dst[i]`` (a local broadcast when ``dst[i]`` is
        :data:`~repro.net.packet.BROADCAST`) of ``size_bytes[i]`` bytes.
        Columns are sequences or 1-D integer arrays, checked before any
        row is sent (:func:`send_many_columns`).

        Accounting-equivalent to one :meth:`send`/:meth:`broadcast` per
        row; batched replay engines use it so a 100k-node frame replay
        does not pay one Python round-trip per frame. Per-frame backends
        implement it as exactly that loop (:func:`send_rows`); the bulk
        fluid backend seals the whole batch vectorized."""
        ...

    def flush(self) -> None:
        """Mark a burst boundary: every frame the caller just emitted
        belongs to one logical burst (a flood rebroadcast, one member's
        share spray, a report wave hop).

        Per-frame backends (``des``, ``fluid``) no-op — each frame is
        already resolved on its own event. The batched ``fluid-bulk``
        backend seals the pending burst here (and also auto-seals via a
        zero-delay event, so *not* calling flush is never incorrect —
        just a hint the backend exploits)."""
        ...

    # -- receiving ----------------------------------------------------------

    def register_handler(
        self, node_id: int, kind: str, handler: PacketHandler
    ) -> None: ...

    def register_overhear(
        self,
        node_id: int,
        listener: OverhearListener,
        kinds: Optional[Sequence[str]] = None,
    ) -> OverhearListener:
        """Attach ``listener``; returns it as stored, for :meth:`remove_overhear`."""
        ...

    def remove_overhear(self, node_id: int, listener: OverhearListener) -> None:
        """Detach ``listener`` from ``node_id``; other listeners stay."""
        ...

    # -- lifecycle / accounting ----------------------------------------------

    def fail_node(self, node_id: int) -> None: ...

    def is_failed(self, node_id: int) -> bool: ...

    @property
    def counters(self) -> Any:
        """Byte/message accounting (:class:`repro.metrics.counters.MessageCounters`)."""
        ...

    @property
    def energy(self) -> Any:
        """Radio energy ledger (:class:`repro.net.energy.EnergyModel`)."""
        ...


#: Recognised transport backend names.
TRANSPORT_KINDS = ("des", "fluid", "fluid-bulk")


def create_transport(
    kind: str,
    sim: Any,
    deployment: Any,
    *,
    radio: Any = None,
    **kwargs: Any,
) -> Transport:
    """Build a transport backend by name.

    Backends are imported lazily so this module (and the phase modules
    that import it) stays free of simulator/backend dependencies until a
    concrete network is actually constructed.

    Parameters
    ----------
    kind:
        ``"des"`` (event-simulated :class:`NetworkStack`), ``"fluid"``
        (closed-form :class:`FluidTransport`, one event per frame), or
        ``"fluid-bulk"`` (:class:`BulkFluidTransport`, the same channel
        model resolved in vectorized macro-event batches).
    sim, deployment, radio:
        Shared constructor arguments; extra ``kwargs`` are forwarded to
        the backend unchanged.
    """
    if kind == "des":
        from repro.net.stack import NetworkStack

        return NetworkStack(sim, deployment, radio=radio, **kwargs)
    if kind == "fluid":
        from repro.net.fluid import FluidTransport

        return FluidTransport(sim, deployment, radio=radio, **kwargs)
    if kind == "fluid-bulk":
        from repro.net.fluid import BulkFluidTransport

        return BulkFluidTransport(sim, deployment, radio=radio, **kwargs)
    raise ValueError(
        f"unknown transport kind {kind!r}; expected one of {TRANSPORT_KINDS}"
    )
