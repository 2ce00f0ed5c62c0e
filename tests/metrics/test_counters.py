"""Unit tests for message counters."""

import random

import numpy as np
import pytest

from repro.metrics import counters as counters_module
from repro.metrics.counters import MessageCounters
from tests.counter_reads import (
    KindBreakdown,
    by_kind,
    kind_totals,
    node_rx_bytes,
    node_tx_bytes,
    node_tx_messages,
)


class TestRollups:
    def test_totals(self):
        counters = MessageCounters()
        counters.record_tx(1, "hello", 20)
        counters.record_tx(1, "report", 40)
        counters.record_tx(2, "hello", 20)
        assert counters.total_messages == 3
        assert counters.total_bytes == 80

    def test_per_node(self):
        counters = MessageCounters()
        counters.record_tx(1, "a", 10)
        counters.record_tx(1, "b", 15)
        counters.record_tx(2, "a", 10)
        counters.record_rx(2, "a", 10)
        assert node_tx_bytes(counters, 1) == 25
        assert node_tx_messages(counters, 1) == 2
        assert node_rx_bytes(counters, 2) == 10
        assert node_tx_bytes(counters, 99) == 0

    def test_by_kind_sorted_by_bytes(self):
        counters = MessageCounters()
        counters.record_tx(1, "small", 5)
        counters.record_tx(1, "big", 500)
        breakdown = by_kind(counters)
        assert breakdown[0].kind == "big"
        assert breakdown[1].kind == "small"
        assert kind_totals(counters, "big")[1] == 500
        assert kind_totals(counters, "small")[0] == 1

    def test_messages_per_node(self):
        counters = MessageCounters()
        counters.record_tx(1, "a", 1)
        counters.record_tx(1, "b", 1)
        counters.record_tx(3, "a", 1)
        assert node_tx_messages(counters, 1) == 2
        assert node_tx_messages(counters, 3) == 1
        assert node_tx_messages(counters, 2) == 0

    def test_columns_match_scalar_records(self):
        columnar = MessageCounters()
        columnar.record_tx_columns("share", [3, 5, 3], 1, np.array([10, 20, 30]))
        columnar.record_rx_columns("share", np.array([7, 7]), [2, 1], [50, 9])
        scalar = MessageCounters()
        for node, size in ((3, 10), (5, 20), (3, 30)):
            scalar.record_tx(node, "share", size)
        for node, size in ((7, 25), (7, 25), (7, 9)):
            scalar.record_rx(node, "share", size)
        assert columnar.snapshot() == scalar.snapshot()
        assert node_tx_messages(columnar, 3) == 2
        assert node_tx_bytes(columnar, 3) == 40
        assert node_rx_bytes(columnar, 7) == 59

    def test_empty_batch_registers_no_kind(self):
        counters = MessageCounters()
        counters.record_tx_columns("ghost", np.array([], dtype=np.int64), 1, [])
        assert by_kind(counters) == []

    def test_negative_node_ids_rejected(self):
        counters = MessageCounters()
        with pytest.raises(ValueError):
            counters.record_tx_columns("x", [1, -1], 1, [5, 5])
        counters.record_rx(-3, "x", 5)
        with pytest.raises(ValueError):
            counters.snapshot()


class _ReferenceCounters:
    """The dict-of-``(node, kind)``-cells store the columns replaced."""

    def __init__(self):
        self.tx = {}
        self.rx = {}

    @staticmethod
    def record(table, node, kind, messages, num_bytes):
        cell = table.setdefault((node, kind), [0, 0])
        cell[0] += messages
        cell[1] += num_bytes

    def reads(self, nodes, kinds):
        totals = {}
        for (_, kind), cell in self.tx.items():
            agg = totals.setdefault(kind, [0, 0])
            agg[0] += cell[0]
            agg[1] += cell[1]
        breakdown = [
            KindBreakdown(kind=kind, messages=cell[0], bytes=cell[1])
            for kind, cell in totals.items()
        ]
        breakdown.sort(key=lambda b: -b.bytes)

        def node_sum(table, node, field):
            return sum(c[field] for (n, _), c in table.items() if n == node)

        def kind_sum(kind, field):
            return sum(c[field] for (_, k), c in self.tx.items() if k == kind)

        return {
            "total_messages": sum(c[0] for c in self.tx.values()),
            "total_bytes": sum(c[1] for c in self.tx.values()),
            "total_rx_messages": sum(c[0] for c in self.rx.values()),
            "total_rx_bytes": sum(c[1] for c in self.rx.values()),
            "node_tx_bytes": [node_sum(self.tx, n, 1) for n in nodes],
            "node_tx_messages": [node_sum(self.tx, n, 0) for n in nodes],
            "node_rx_bytes": [node_sum(self.rx, n, 1) for n in nodes],
            "kind_bytes": [kind_sum(k, 1) for k in kinds],
            "kind_messages": [kind_sum(k, 0) for k in kinds],
            "by_kind": breakdown,
        }


def _reads(counters, nodes, kinds):
    return {
        "total_messages": counters.total_messages,
        "total_bytes": counters.total_bytes,
        "total_rx_messages": counters.total_rx_messages,
        "total_rx_bytes": counters.total_rx_bytes,
        "node_tx_bytes": [node_tx_bytes(counters, n) for n in nodes],
        "node_tx_messages": [node_tx_messages(counters, n) for n in nodes],
        "node_rx_bytes": [node_rx_bytes(counters, n) for n in nodes],
        "kind_bytes": [kind_totals(counters, k)[1] for k in kinds],
        "kind_messages": [kind_totals(counters, k)[0] for k in kinds],
        "by_kind": by_kind(counters),
    }


def _all_ints(reads):
    values = []
    for value in reads.values():
        if isinstance(value, list):
            for item in value:
                if isinstance(item, KindBreakdown):
                    values.extend((item.messages, item.bytes))
                else:
                    values.append(item)
        else:
            values.append(value)
    return values


@pytest.mark.parametrize("fold_at", [None, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_randomised_against_reference(seed, fold_at, monkeypatch):
    if fold_at is not None:
        # Force folds in the middle of scalar bursts.
        monkeypatch.setattr(counters_module, "_FOLD_AT", fold_at)
    rng = random.Random(seed)
    kinds = ["hello", "share", "ack", "fval", "report", "census"]
    probe_nodes = [0, 1, 5, 63, 64, 127, 300, 301, 5000, -1]
    probe_kinds = kinds + ["never"]
    counters = MessageCounters()
    reference = _ReferenceCounters()
    for step in range(400):
        op = rng.random()
        kind = rng.choice(kinds)
        if op < 0.35:
            node, size = rng.randrange(300), rng.randrange(1, 90)
            counters.record_tx(node, kind, size)
            reference.record(reference.tx, node, kind, 1, size)
        elif op < 0.6:
            node, size = rng.randrange(300), rng.randrange(1, 90)
            counters.record_rx(node, kind, size)
            reference.record(reference.rx, node, kind, 1, size)
        elif op < 0.9:
            rows = rng.randrange(0, 12)
            nodes = [rng.randrange(300) for _ in range(rows)]
            sizes = [rng.randrange(1, 400) for _ in range(rows)]
            if rng.random() < 0.5:
                messages = 1
                per_row = [1] * rows
            else:
                per_row = [rng.randrange(0, 4) for _ in range(rows)]
                messages = np.array(per_row, dtype=np.int64)
            tx = rng.random() < 0.5
            record = counters.record_tx_columns if tx else counters.record_rx_columns
            record(kind, np.array(nodes, dtype=np.int64), messages, np.array(sizes))
            table = reference.tx if tx else reference.rx
            for node, count, size in zip(nodes, per_row, sizes):
                reference.record(table, node, kind, count, size)
        else:
            got = _reads(counters, probe_nodes, probe_kinds)
            assert got == reference.reads(probe_nodes, probe_kinds), step
            assert all(type(value) is int for value in _all_ints(got))
            snapshot = counters.snapshot()
            assert snapshot == {
                "messages": got["total_messages"],
                "bytes": got["total_bytes"],
                "rx_messages": got["total_rx_messages"],
                "rx_bytes": got["total_rx_bytes"],
            }
            assert all(type(value) is int for value in snapshot.values())
    got = _reads(counters, probe_nodes, probe_kinds)
    assert got == reference.reads(probe_nodes, probe_kinds)
    assert all(type(value) is int for value in _all_ints(got))


def test_by_kind_breaks_ties_in_first_recorded_order():
    counters = MessageCounters()
    counters.record_tx(2, "late", 10)  # first recorded, buffered
    counters.record_tx_columns("early", [1], 1, [10])
    counters.record_tx(3, "mid", 10)
    assert [b.kind for b in by_kind(counters)] == ["late", "early", "mid"]


def test_columns_grow_past_several_doublings():
    counters = MessageCounters()
    nodes = [0, 63, 64, 129, 1000, 4097, 70000]
    for node in nodes:
        counters.record_tx(node, "hello", node + 1)
        # Fold between records, so the columns grow one step at a time.
        assert counters.total_bytes > 0
        counters.record_rx_columns("share", [node, node], 1, [3, 4])
    for position, kind in enumerate("abcdefghijklmnopq"):
        counters.record_tx_columns(kind, [position * 997 + 1], 2, [position])
    assert counters.total_bytes == sum(n + 1 for n in nodes) + sum(range(17))
    assert counters.total_messages == len(nodes) + 2 * 17
    for node in nodes:
        assert node_tx_messages(counters, node) == 1
        assert node_rx_bytes(counters, node) == 7
    assert node_tx_messages(counters, 16 * 997 + 1) == 2
    assert node_tx_bytes(counters, 70001) == 0
    assert node_rx_bytes(counters, 10**9) == 0
    assert counters.total_rx_messages == 2 * len(nodes)
    assert [b.kind for b in by_kind(counters)][:2] == ["hello", "q"]
    # Each dimension grows only when it runs out.
    assert counters._rx.messages.shape == (8, 70001)
    assert counters._tx.messages.shape == (32, 70001)
