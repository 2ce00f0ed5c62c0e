"""Per-node receive state: addressed handlers and reception counters.

A :class:`Node` routes frames addressed to it (unicast to its id, or
broadcast) to the handler registered for the frame's ``kind``, and
counts what it received and overheard. The stack's delivery sweep
(:meth:`repro.net.stack.NetworkStack._sweep`) drives it; promiscuous
*overhear* listeners, which see every frame audible at the node whether
addressed or not, are kept by the stack per kind (iCPDA's witnesses
audit their head's report that way).
"""

from __future__ import annotations

from typing import Dict

from repro.errors import SimulationError
from repro.net.transport import PacketHandler


class Node:
    """Protocol-facing endpoint for one sensor.

    Parameters
    ----------
    node_id:
        This node's identifier (0 is the base station by convention).
        Addressed frames of a kind with no handler are ignored, like a
        real stack.
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._handlers: Dict[str, PacketHandler] = {}
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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Node({self.node_id}, handlers={sorted(self._handlers)})"
