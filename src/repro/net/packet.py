"""Packets and wire-size accounting.

Communication overhead is a primary metric of the evaluation, so every
frame carries an explicit byte size. Sizes are derived from payload
contents by :func:`payload_size` using the conventions below (chosen to
match TinyOS-era WSN packet layouts):

==================  =========================================
payload value       wire size
==================  =========================================
bool                1 byte
int                 4 bytes (8 if it exceeds 32-bit range)
float               4 bytes
str                 UTF-8 length
bytes               length
sequence            sum of element sizes
mapping             sum of value sizes
object              ``obj.wire_size()`` if it defines one
==================  =========================================

Each frame additionally pays :data:`HEADER_BYTES` of MAC/NET header.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

#: Pseudo-address for local broadcast frames.
BROADCAST = -1

#: Combined MAC + network header cost per frame, bytes.
HEADER_BYTES = 16

_PACKET_SEQ = itertools.count()


def _dict_payload_size(payload: dict) -> int:
    """Size a plain dict of mostly-scalar values without the isinstance
    chain — the shape of nearly every packet payload. Exact ``type``
    checks exclude subclasses (and bool-as-int), so any value that is not
    literally an int/float/str/bool falls back to :func:`payload_size`
    with identical results."""
    total = 0
    for value in payload.values():
        kind = type(value)
        if kind is int:
            total += 4 if -2147483648 <= value < 2147483648 else 8
        elif kind is float:
            total += 4
        elif kind is str:
            total += len(value.encode("utf-8"))
        elif kind is bool:
            total += 1
        else:
            total += payload_size(value)
    return total


def payload_size(value: Any) -> int:
    """Recursively compute the wire size in bytes of a payload value.

    Unknown object types must expose a ``wire_size()`` method; otherwise a
    :class:`TypeError` is raised so silent mis-accounting cannot happen.
    """
    # Exact-type fast paths first: nearly every payload value is a plain
    # dict, int, tuple/list, float, or str, and exact checks skip both
    # the MRO walk of isinstance and — for containers — the expensive
    # Mapping ABC test. Subclasses (bool included: type(True) is bool,
    # not int) fall through to the original chain with identical results.
    kind = type(value)
    if kind is dict:
        return _dict_payload_size(value)
    if kind is int:
        return 4 if -2147483648 <= value < 2147483648 else 8
    if kind is tuple or kind is list:
        total = 0
        for item in value:  # a loop, not sum(genexpr): int items sized in place
            if type(item) is int:
                total += 4 if -2147483648 <= item < 2147483648 else 8
            else:
                total += payload_size(item)
        return total
    if kind is float:
        return 4
    if kind is str:
        return len(value.encode("utf-8"))
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 4 if -(2**31) <= value < 2**31 else 8
    if isinstance(value, float):
        return 4
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, Mapping):
        return sum(payload_size(v) for v in value.values())
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(payload_size(v) for v in value)
    wire_size = getattr(value, "wire_size", None)
    if callable(wire_size):
        return int(wire_size())
    raise TypeError(f"cannot size payload value of type {type(value).__name__}")


@dataclass(frozen=True, slots=True)
class Packet:
    """An over-the-air frame (slotted: the simulator allocates one per
    transmission, so instance dicts would be pure overhead).

    Attributes
    ----------
    src:
        Sender node id.
    dst:
        Destination node id, or :data:`BROADCAST`.
    kind:
        Protocol message type (``"hello"``, ``"share"``, ``"report"``...),
        used for dispatch and per-kind accounting.
    payload:
        Arbitrary mapping of message fields.
    size_bytes:
        Total frame size including header. Computed from the payload when
        not given explicitly.
    seq:
        Globally unique frame number (diagnostics / dedup).
    """

    src: int
    dst: int
    kind: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    size_bytes: Optional[int] = None
    seq: int = field(default_factory=lambda: next(_PACKET_SEQ))

    def __post_init__(self) -> None:
        if self.size_bytes is None:
            object.__setattr__(
                self, "size_bytes", HEADER_BYTES + payload_size(self.payload)
            )
        elif self.size_bytes < HEADER_BYTES:
            raise ValueError(
                f"size_bytes={self.size_bytes} below header size {HEADER_BYTES}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        dst = "*" if self.dst == BROADCAST else str(self.dst)
        return f"Packet({self.src}->{dst} {self.kind} {self.size_bytes}B #{self.seq})"
