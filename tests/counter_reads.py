"""Per-node and per-kind reads of :class:`~repro.metrics.counters.MessageCounters`.

The library only rolls its counters up (totals and a snapshot). Tests
that pin accounting node by node or kind by kind read the columns
through these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.metrics.counters import MessageCounters


@dataclass(frozen=True)
class KindBreakdown:
    """Transmit totals for one message kind: frames and their byte sum
    (headers included)."""

    kind: str
    messages: int
    bytes: int


def by_kind(counters: MessageCounters) -> List[KindBreakdown]:
    """Transmit totals per message kind, sorted by descending bytes
    (ties in first-recorded order)."""
    tx = counters._read(counters._tx)
    used = len(tx.rows)
    messages = tx.messages[:used].sum(axis=1).tolist()
    byte_sums = tx.bytes[:used].sum(axis=1).tolist()
    breakdown = [
        KindBreakdown(kind=kind, messages=messages[row], bytes=byte_sums[row])
        for kind, row in tx.rows.items()
    ]
    breakdown.sort(key=lambda b: -b.bytes)
    return breakdown


def _node_sum(table, node_id: int) -> int:
    if 0 <= node_id < table.shape[1]:
        return int(table[:, node_id].sum())
    return 0


def node_tx_bytes(counters: MessageCounters, node_id: int) -> int:
    return _node_sum(counters._read(counters._tx).bytes, node_id)


def node_tx_messages(counters: MessageCounters, node_id: int) -> int:
    return _node_sum(counters._read(counters._tx).messages, node_id)


def node_rx_bytes(counters: MessageCounters, node_id: int) -> int:
    return _node_sum(counters._read(counters._rx).bytes, node_id)


def node_rx_messages(counters: MessageCounters, node_id: int) -> int:
    return _node_sum(counters._read(counters._rx).messages, node_id)


def kind_totals(counters: MessageCounters, kind: str) -> tuple:
    """``(messages, bytes)`` transmitted under ``kind`` (zeros if unseen)."""
    for breakdown in by_kind(counters):
        if breakdown.kind == kind:
            return breakdown.messages, breakdown.bytes
    return 0, 0
