"""Per-node and per-kind reads of :class:`~repro.metrics.counters.MessageCounters`.

The library only rolls its counters up (totals, :meth:`by_kind`). Tests
that pin accounting node by node read the columns through these.
"""

from __future__ import annotations

from repro.metrics.counters import MessageCounters


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
    for breakdown in counters.by_kind():
        if breakdown.kind == kind:
            return breakdown.messages, breakdown.bytes
    return 0, 0
