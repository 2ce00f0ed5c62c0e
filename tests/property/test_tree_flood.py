"""The columnar Phase-I flood on ``fluid-bulk`` equals the per-pair one.

The bulk transport offers columnar delivery (``register_columns``) and
future key-ups (``broadcast_later``); the tree builder uses them
whenever the transport has them. With ``register_columns`` taken off the
class, the same builder floods hello by hello: a handler call per
reception and a kernel timer per forward. On drawn fields, seeds,
queries, kills before ``setup()`` and before a ``rebuild_tree()``,
traces, and an optional wildcard or ``hello`` listener, both floods
must build the same trees with the same books, trace and listener log.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.functions import make_aggregate
from repro.aggregation.tree import HELLO_KIND
from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.net.fluid import BulkFluidTransport
from repro.topology.deploy import uniform_deployment
from tests.counter_reads import node_rx_bytes, node_tx_bytes, node_tx_messages


def _tree(tree) -> tuple:
    return (
        tree.parents,
        tree.depths,
        {node: sorted(kids) for node, kids in tree.children.items()},
        tree.query_at,
    )


def _flood(num_nodes, field, seed, query, kills, trace, listener) -> tuple:
    deployment = uniform_deployment(
        num_nodes, field_size=field, rng=np.random.default_rng(seed)
    )
    protocol = IcpdaProtocol(
        deployment,
        IcpdaConfig(aggregate_name=query),
        seed=seed,
        transport="fluid-bulk",
        aggregate=make_aggregate("sum"),
        trace=trace,
    )
    stack = protocol.stack
    heard = []
    if listener is not None:

        def record(node, packet):
            heard.append(
                (node, packet.src, packet.kind, dict(packet.payload), stack.sim.now)
            )

        kinds = None if listener == "wildcard" else (HELLO_KIND,)
        for node in range(0, num_nodes, 3):
            stack.register_overhear(node, record, kinds=kinds)
    trees = []
    for before in kills:
        for node in before:
            stack.fail_node(node)
        trees.append(_tree(protocol.setup() if not trees else protocol.rebuild_tree()))
    counters, energy = stack.counters, stack.energy
    nodes = list(stack.node_ids())
    joins = [
        (record.time, record.fields)
        for record in protocol.sim.trace
        if record.category == "tree.join"
    ]
    return (
        trees,
        [
            (
                node_tx_messages(counters, node),
                node_tx_bytes(counters, node),
                node_rx_bytes(counters, node),
                repr(energy.spent(node)),
            )
            for node in nodes
        ],
        stack.stats.snapshot(),
        protocol.sim.stats.snapshot(),
        protocol.phase_bytes,
        joins,
        [
            (record.time, record.category, record.fields)
            for record in protocol.sim.trace
            if not record.category.startswith("profile.")  # wall clock
        ],
        heard,
    )


@st.composite
def floods(draw):
    num_nodes = draw(st.integers(20, 300))
    node = st.integers(0, num_nodes - 1)
    return dict(
        num_nodes=num_nodes,
        field=draw(st.sampled_from([120.0, 200.0, 260.0, 400.0])),
        seed=draw(st.integers(0, 2**16)),
        query=draw(st.text(max_size=12)),
        kills=[draw(st.lists(node, max_size=3)) for _ in range(2)],
        trace=draw(st.booleans()),
        listener=draw(st.sampled_from([None, "wildcard", "hello"])),
    )


@settings(max_examples=60, deadline=None)
@given(floods())
def test_columnar_flood_equals_per_pair_flood(case):
    columnar = _flood(**case)
    with pytest.MonkeyPatch.context() as patch:
        patch.delattr(BulkFluidTransport, "register_columns")
        assert _flood(**case) == columnar
    if case["trace"]:
        joins = columnar[5]
        assert len(joins) == sum(len(tree[0]) - 1 for tree in columnar[0])
