"""The columnar energy ledger reads exactly as a per-node dict of floats.

The ledger stages scalar adds (``account_tx``, and receptions the DES
sweep appends to the staging lists) and column batches and folds them with
``np.add.at``; reads sum in first-charge order. The reference below is
the dict it replaced: ``spent[node] = spent.get(node, 0.0) + joules`` in
call order. Floats are compared by ``repr``, so sums must be the very
same bits, and ``per_node_j`` must keep the dict's key order.

The second property drives the fluid transports' receive bank (per-frame
sends, ``send_many`` batches, ``fail_node`` and reads) against a dict
ledger and a dict bank that charge in the same order: transmit energy per
frame, or per ``send_many`` call and ascending sender; receive energy at
the next read or death, senders in first-bank order, each sender's live
neighbors in adjacency order, ``bytes * (1 - contended link loss)``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import energy as energy_module
from repro.net import fluid as fluid_module
from repro.net.energy import EnergyModel, EnergyReport
from repro.net.fluid import BulkFluidTransport, FluidTransport
from repro.sim.kernel import Simulator
from repro.topology.deploy import uniform_deployment


class _DictLedger:
    """The per-node dict ledger, as it was."""

    def __init__(self, tx_j_per_byte, rx_j_per_byte):
        self.tx = tx_j_per_byte
        self.rx = rx_j_per_byte
        self.spent = {}

    def add(self, node, joules):
        self.spent[node] = self.spent.get(node, 0.0) + joules

    def snapshot(self):
        per_node = self.spent.values()
        return {
            "total_j": sum(per_node),
            "max_node_j": max(per_node) if self.spent else 0.0,
            "nodes_charged": len(self.spent),
        }

    def report(self):
        per_node = dict(self.spent)
        total = sum(per_node.values())
        return EnergyReport(
            total_j=total,
            per_node_j=per_node,
            max_node_j=max(per_node.values()) if per_node else 0.0,
        )


def _reads(ledger, reference, nodes):
    assert [repr(ledger.spent(n)) for n in nodes] == [
        repr(reference.spent.get(n, 0.0)) for n in nodes
    ]
    assert repr(ledger.snapshot()) == repr(reference.snapshot())
    report, expected = ledger.report(), reference.report()
    assert repr(report) == repr(expected)
    assert list(report.per_node_j) == list(expected.per_node_j)


NODES = st.integers(0, 150)
BYTES = st.integers(0, 300)
ledger_ops = st.one_of(
    st.tuples(st.just("tx"), NODES, BYTES),
    st.tuples(st.just("rx"), NODES, st.floats(0.0, 300.0, allow_nan=False)),
    st.tuples(
        st.just("columns"),
        st.lists(st.tuples(NODES, st.floats(0.0, 1e-2, allow_nan=False)), max_size=20),
    ),
    st.tuples(st.just("fold")),
    st.tuples(st.just("read"), st.lists(st.integers(0, 200), max_size=5)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ledger_ops, max_size=60), st.sampled_from((3, 1 << 12)))
def test_ledger_reads_as_the_dict_ledger(script, fold_at):
    original = energy_module.FOLD_AT
    energy_module.FOLD_AT = fold_at  # a small bound folds mid-run
    try:
        ledger = EnergyModel(tx_j_per_byte=16.25e-6, rx_j_per_byte=12.5e-6)
        reference = _DictLedger(16.25e-6, 12.5e-6)
        for op in script:
            if op[0] == "tx":
                ledger.account_tx(op[1], op[2])
                reference.add(op[1], reference.tx * op[2])
            elif op[0] == "rx":  # as the DES sweep stages a reception
                ledger.staged_nodes.append(op[1])
                ledger.staged_joules.append(ledger.rx_j_per_byte * op[2])
                reference.add(op[1], reference.rx * op[2])
            elif op[0] == "columns":
                nodes = np.array([n for n, _ in op[1]], dtype=np.int64)
                joules = np.array([j for _, j in op[1]], dtype=np.float64)
                ledger.charge_columns(nodes, joules)
                for node, value in zip(nodes.tolist(), joules.tolist()):
                    reference.add(node, value)
            elif op[0] == "fold":
                ledger.fold()
            else:
                _reads(ledger, reference, op[1])
        _reads(ledger, reference, range(160))
    finally:
        energy_module.FOLD_AT = original


def test_ledger_rejects_negative_node_ids():
    ledger = EnergyModel()
    ledger.account_tx(-1, 10)
    with pytest.raises(ValueError):
        ledger.spent(0)


# -- the fluid transports' receive bank ----------------------------------------

NUM_NODES = 40


def _transport(bulk):
    deployment = uniform_deployment(
        NUM_NODES, field_size=180.0, rng=np.random.default_rng(11)
    )
    cls = BulkFluidTransport if bulk else FluidTransport
    return cls(Simulator(seed=11), deployment)


class _DictBank:
    """The dict receive bank: sender -> bytes, flushed in insertion order."""

    def __init__(self, stack):
        energy = stack.energy
        self.ledger = _DictLedger(energy.tx_j_per_byte, energy.rx_j_per_byte)
        self.pending = {}
        self.dead = set()
        self.links = stack.deployment.links
        self.loss = stack._edge_loss_contended.tolist()

    def transmit(self, src, num_bytes):
        self.ledger.add(src, self.ledger.tx * num_bytes)
        self.pending[src] = self.pending.get(src, 0) + num_bytes

    def flush(self):
        indptr = self.links.indptr.tolist()
        indices = self.links.indices.tolist()
        for sender, total in self.pending.items():
            for edge in range(indptr[sender], indptr[sender + 1]):
                receiver = indices[edge]
                if receiver not in self.dead:
                    self.ledger.add(
                        receiver, self.ledger.rx * (total * (1.0 - self.loss[edge]))
                    )
        self.pending.clear()


node_ids = st.integers(0, NUM_NODES - 1)
sizes = st.integers(16, 120)
bank_ops = st.one_of(
    st.tuples(st.just("send"), node_ids, node_ids, sizes),
    st.tuples(
        st.just("send_many"),
        st.lists(st.tuples(node_ids, node_ids, sizes), max_size=12),
    ),
    st.tuples(st.just("fail"), node_ids),
    st.tuples(st.just("read")),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(bank_ops, max_size=40), st.booleans(), st.sampled_from((2, 1 << 12)))
def test_rx_bank_charges_as_the_dict_bank(script, bulk, fold_at):
    original = energy_module.FOLD_AT
    energy_module.FOLD_AT = fluid_module.FOLD_AT = fold_at
    try:
        stack = _transport(bulk)
        reference = _DictBank(stack)
        for op in script:
            if op[0] == "send":
                _, src, dst, size = op
                stack.send(src, dst, "x", size_bytes=size)
                stack.flush()  # the bulk burst is sealed, and charged, now
                if src not in reference.dead:
                    reference.transmit(src, size)
            elif op[0] == "send_many":
                rows = op[1]
                columns = [np.array(c, dtype=np.int64) for c in zip(*rows)] or [
                    np.zeros(0, dtype=np.int64)
                ] * 3
                stack.send_many("x", *columns)
                live = [(s, d, b) for s, d, b in rows if s not in reference.dead]
                if bulk:  # one charge per ascending sender, bytes summed
                    totals = {}
                    for src, _, size in live:
                        totals[src] = totals.get(src, 0) + size
                    for src in sorted(totals):
                        reference.transmit(src, totals[src])
                else:
                    for src, _, size in live:
                        reference.transmit(src, size)
            elif op[0] == "fail":
                reference.flush()
                reference.dead.add(op[1])
                stack.fail_node(op[1])
            else:
                reference.flush()
                _reads(stack.energy, reference.ledger, range(NUM_NODES))
        reference.flush()
        _reads(stack.energy, reference.ledger, range(NUM_NODES))
    finally:
        energy_module.FOLD_AT = fluid_module.FOLD_AT = original
