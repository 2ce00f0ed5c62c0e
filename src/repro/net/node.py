"""Node frame dispatch: addressed handlers and promiscuous overhearing.

A :class:`Node` receives *every* clean frame audible at its position (the
medium does not filter). It dispatches:

* frames addressed to it (unicast to its id, or broadcast) to the handler
  registered for the frame's ``kind``;
* **all** frames — addressed or not — to registered *overhear* listeners.

Overhearing is deliberately a first-class mechanism because iCPDA's
integrity layer is built on it: cluster members witness their head's
upstream report by listening promiscuously.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.net.packet import BROADCAST, Packet
from repro.net.transport import OverhearListener, PacketHandler


class Node:
    """Protocol-facing endpoint for one sensor.

    Parameters
    ----------
    node_id:
        This node's identifier (0 is the base station by convention).
    on_unhandled:
        Optional fallback invoked for addressed frames with no registered
        handler (default: silently ignored, like a real stack).
    """

    def __init__(
        self,
        node_id: int,
        on_unhandled: Optional[PacketHandler] = None,
    ) -> None:
        self.node_id = node_id
        self._handlers: Dict[str, PacketHandler] = {}
        # Kind-scoped listeners (registered with a kinds= hint) are the
        # common case — witnesses listen for report traffic, exchange
        # members for F-values — and filtering by kind *here* skips a
        # Python call per non-matching audible frame, which in dense
        # fields is most of them. Listeners registered without a hint
        # stay fully promiscuous.
        self._kind_overhear: Dict[str, List[OverhearListener]] = {}
        self._wild_overhear: List[OverhearListener] = []
        self._on_unhandled = on_unhandled
        self.received = 0
        self.overheard = 0

    def register_handler(self, kind: str, handler: PacketHandler) -> None:
        """Route addressed frames of ``kind`` to ``handler``.

        Re-registering a kind replaces the previous handler (protocol
        phases hand the same message types to new logic).
        """
        if not kind:
            raise SimulationError("handler kind must be non-empty")
        self._handlers[kind] = handler

    def unregister_handler(self, kind: str) -> None:
        """Remove the handler for ``kind`` if present."""
        self._handlers.pop(kind, None)

    def register_overhear(
        self,
        listener: OverhearListener,
        kinds: Optional[Sequence[str]] = None,
    ) -> None:
        """Add a promiscuous listener.

        With ``kinds`` the listener is invoked only for frames of those
        kinds (the radio still hears everything — this is dispatch-time
        filtering of listeners that would ignore the frame anyway).
        Without ``kinds`` the listener sees every audible frame.
        """
        if kinds is None:
            self._wild_overhear.append(listener)
        else:
            for kind in kinds:
                self._kind_overhear.setdefault(kind, []).append(listener)

    def clear_overhear(self) -> None:
        """Remove all promiscuous listeners."""
        self._kind_overhear.clear()
        self._wild_overhear.clear()

    def deliver(self, packet: Packet) -> None:
        """Entry point called by the medium for each clean frame.

        Listeners and handlers are called as ``callback(node_id, packet)``."""
        node_id = self.node_id
        if self._kind_overhear:
            listeners = self._kind_overhear.get(packet.kind)
            if listeners:
                # Snapshot only when listeners exist: most frames match
                # none, and a fresh list per delivery is allocation churn.
                for listener in tuple(listeners):
                    self.overheard += 1
                    listener(node_id, packet)
        if self._wild_overhear:
            for listener in tuple(self._wild_overhear):
                self.overheard += 1
                listener(node_id, packet)
        dst = packet.dst
        if dst != BROADCAST and dst != node_id:
            # Inlined packet.addressed_to(): this runs once per audible
            # frame network-wide, and most frames are not for this node.
            return
        self.received += 1
        handler = self._handlers.get(packet.kind)
        if handler is not None:
            handler(node_id, packet)
        elif self._on_unhandled is not None:
            self._on_unhandled(node_id, packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Node({self.node_id}, handlers={sorted(self._handlers)})"
