"""Message and byte counters, per node and per message kind.

The communication-overhead experiments (F3) compare total bytes put on
the air by TAG vs iCPDA across network sizes, and the ablations break the
totals down by protocol phase — so counters key on ``(node, kind)`` and
can be rolled up either way.

Storage is columnar: for transmit and for receive, one row of int64
message and byte counts per kind, indexed by node id. Batched transports
record a whole batch with one :meth:`MessageCounters.record_tx_columns` /
:meth:`~MessageCounters.record_rx_columns` call per kind. The per-frame
:meth:`~MessageCounters.record_tx` / :meth:`~MessageCounters.record_rx`
(and :meth:`~MessageCounters.record_rx_many`, one broadcast's receivers)
append to a per-kind buffer that is folded into the rows on the next
read (or once it grows long), which keeps them cheaper than a dict cell
update. Every read first calls the ``before_read`` hook (a transport
that defers its accounting settles it there), then is an array
reduction and returns a plain Python ``int``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

import numpy as np

#: Buffer length (two entries per scalar record) that forces a fold,
#: bounding the buffers' memory between reads.
_FOLD_AT = 1 << 15

Counts = Union[int, np.ndarray]


class _Columns:
    """One direction's counts: ``messages[row, node]`` and
    ``bytes[row, node]``, one row per kind in first-recorded order,
    both dimensions grown by doubling. ``pending[kind]`` buffers scalar
    records not yet folded in, as a flat ``[node, bytes, node, ...]``
    list."""

    __slots__ = ("rows", "pending", "messages", "bytes")

    def __init__(self) -> None:
        self.rows: Dict[str, int] = {}
        self.pending: Dict[str, List[int]] = {}
        self.messages = np.zeros((0, 0), dtype=np.int64)
        self.bytes = np.zeros((0, 0), dtype=np.int64)

    def open(self, kind: str) -> List[int]:
        """Give a first-seen ``kind`` its row; returns its buffer."""
        self.rows[kind] = len(self.rows)
        buffer: List[int] = []
        self.pending[kind] = buffer
        return buffer

    def add(
        self, kind: str, nodes: np.ndarray, messages: Counts, num_bytes: Counts
    ) -> None:
        if nodes.size == 0:
            return
        if int(nodes.min()) < 0:
            raise ValueError("message counters take non-negative node ids")
        if kind not in self.rows:
            self.open(kind)
        row = self.rows[kind]
        max_node = int(nodes.max())
        old_rows, old_nodes = self.messages.shape
        if row >= old_rows or max_node >= old_nodes:
            shape = (
                old_rows if row < old_rows else max(row + 1, 2 * old_rows, 8),
                old_nodes
                if max_node < old_nodes
                else max(max_node + 1, 2 * old_nodes, 64),
            )
            for name in ("messages", "bytes"):
                grown = np.zeros(shape, dtype=np.int64)
                grown[:old_rows, :old_nodes] = getattr(self, name)
                setattr(self, name, grown)
        np.add.at(self.messages[row], nodes, messages)
        np.add.at(self.bytes[row], nodes, num_bytes)

    def fold(self) -> "_Columns":
        """Move every buffered scalar record into the columns."""
        for kind, buffer in self.pending.items():
            if buffer:
                flat = np.array(buffer, dtype=np.intp)
                buffer.clear()
                self.add(kind, flat[0::2], 1, flat[1::2])
        return self


class MessageCounters:
    """Accumulates transmit/receive totals for a protocol run.

    Node ids must be non-negative integers (they index the columns)."""

    def __init__(self) -> None:
        self._tx = _Columns()
        self._rx = _Columns()
        #: Called before every read (the bulk fluid transport settles
        #: its replay log here).
        self.before_read: Callable[[], None] = lambda: None

    def _read(self, columns: _Columns) -> _Columns:
        self.before_read()
        return columns.fold()

    # -- recording ----------------------------------------------------------

    def record_tx(self, node_id: int, kind: str, num_bytes: int) -> None:
        """Count one transmitted frame."""
        buffer = self._tx.pending.get(kind)
        if buffer is None:
            buffer = self._tx.open(kind)
        buffer.append(node_id)
        buffer.append(num_bytes)
        if len(buffer) >= _FOLD_AT:
            self._tx.fold()

    def record_rx(self, node_id: int, kind: str, num_bytes: int) -> None:
        """Count one received (addressed, clean) frame."""
        buffer = self._rx.pending.get(kind)
        if buffer is None:
            buffer = self._rx.open(kind)
        buffer.append(node_id)
        buffer.append(num_bytes)
        if len(buffer) >= _FOLD_AT:
            self._rx.fold()

    def record_rx_many(self, nodes: List[int], kind: str, num_bytes: int) -> None:
        """Count one ``kind`` frame of ``num_bytes`` received at each of
        ``nodes``: the :meth:`record_rx` calls of one broadcast at once."""
        buffer = self._rx.pending.get(kind)
        if buffer is None:
            buffer = self._rx.open(kind)
        pairs = [num_bytes] * (2 * len(nodes))
        pairs[0::2] = nodes
        buffer += pairs
        if len(buffer) >= _FOLD_AT:
            self._rx.fold()

    def record_tx_columns(
        self, kind: str, nodes: np.ndarray, messages: Counts, num_bytes: Counts
    ) -> None:
        """Count a batch of ``kind`` transmissions: row ``i`` adds
        ``messages[i]`` frames totalling ``num_bytes[i]`` bytes at
        ``nodes[i]`` (node ids may repeat; a scalar count applies to
        every row). Equivalent to the matching :meth:`record_tx` calls."""
        self._tx.add(kind, np.asarray(nodes, dtype=np.intp), messages, num_bytes)

    def record_rx_columns(
        self, kind: str, nodes: np.ndarray, messages: Counts, num_bytes: Counts
    ) -> None:
        """Count a batch of ``kind`` receptions (see
        :meth:`record_tx_columns`)."""
        self._rx.add(kind, np.asarray(nodes, dtype=np.intp), messages, num_bytes)

    # -- rollups -------------------------------------------------------------

    @property
    def total_messages(self) -> int:
        """All frames transmitted in the run."""
        return int(self._read(self._tx).messages.sum())

    @property
    def total_bytes(self) -> int:
        """All bytes transmitted in the run (headers included)."""
        return int(self._read(self._tx).bytes.sum())

    @property
    def total_rx_messages(self) -> int:
        """All addressed, clean frames received in the run."""
        return int(self._read(self._rx).messages.sum())

    @property
    def total_rx_bytes(self) -> int:
        """All bytes received (addressed, clean) in the run."""
        return int(self._read(self._rx).bytes.sum())

    def snapshot(self) -> dict:
        """Run totals as a plain dict (metrics-registry provider)."""
        return {
            "messages": self.total_messages,
            "bytes": self.total_bytes,
            "rx_messages": self.total_rx_messages,
            "rx_bytes": self.total_rx_bytes,
        }
