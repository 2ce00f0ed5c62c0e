"""Unit tests for the bulk (tick-grid, vectorized) fluid transport.

The bulk backend must honor the same seam semantics as the per-frame
paths — delivery sets, overhear filtering, fail-silent dead nodes,
accounting resets — while resolving frames in vectorized batches. The
draw-ordering contract under test: jitter coins are drawn in frame
emission order at seal, loss coins in (delivery, adjacency) order at
resolve, and a sender that dies before its burst seals consumes *no*
draws (later frames sample the exact stream positions they would have
in a run where the dead node never sent).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.fluid import BulkFluidTransport, FluidParams
from repro.net.packet import BROADCAST
from repro.sim.kernel import Simulator
from repro.topology.deploy import uniform_deployment
from tests.counter_reads import node_rx_bytes, node_tx_bytes, node_tx_messages


def make_bulk(seed=7, num_nodes=80, params=None, radio=None):
    deployment = uniform_deployment(
        num_nodes, field_size=260.0, rng=np.random.default_rng(seed)
    )
    sim = Simulator(seed=seed)
    return BulkFluidTransport(sim, deployment, radio=radio, params=params)


# -- delivery semantics ---------------------------------------------------------


def test_broadcast_reaches_neighbors_and_counts():
    stack = make_bulk()
    src = 1
    heard = []
    for peer in stack.neighbors(src):
        stack.register_handler(peer, "hello", lambda _node, p: heard.append(p))
    stack.broadcast(src, "hello", {"depth": 0})
    stack.sim.run()
    assert stack.stats.transmissions == 1
    assert len(heard) == stack.stats.deliveries
    assert len(heard) + stack.stats.ambient_losses + stack.stats.collisions == len(
        stack.neighbors(src)
    )
    assert stack.counters.total_bytes > 0


def test_unicast_delivers_to_destination_only():
    stack = make_bulk(params=FluidParams(congestion_coeff=0.0))
    assert stack.radio.ambient_loss == 0.0
    src = 1
    dst = stack.neighbors(src)[0]
    got = []
    stack.register_handler(dst, "share", lambda _node, p: got.append(p))
    other = stack.neighbors(src)[-1]
    stack.register_handler(other, "share", lambda _node, p: got.append(p))
    stack.send(src, dst, "share", {"v": 3})
    stack.sim.run()
    assert len(got) == 1 and got[0].dst == dst


def test_delivery_without_explicit_flush():
    """Unsealed frames are sealed lazily by their resolve tick: flush()
    is a boundary hint, never a delivery prerequisite."""
    stack = make_bulk(params=FluidParams(congestion_coeff=0.0))
    src = 1
    dst = stack.neighbors(src)[0]
    got = []
    stack.register_handler(dst, "ping", lambda _node, p: got.append(p))
    stack.send(src, dst, "ping", {"v": 1})
    assert got == []  # fire-and-forget: nothing delivers synchronously
    stack.sim.run()
    assert len(got) == 1


def test_delivery_latency_bounded_by_tick_grid():
    """Every frame resolves within access jitter + airtime + one tick
    of its emission (the documented quantization bound)."""
    params = FluidParams(congestion_coeff=0.0)
    stack = make_bulk(params=params)
    src = 1
    dst = stack.neighbors(src)[0]
    seen_at = []
    stack.register_handler(dst, "ping", lambda _node, p: seen_at.append(stack.sim.now))
    packet = stack.send(src, dst, "ping", {"v": 1})
    stack.sim.run()
    assert len(seen_at) == 1
    bound = (
        params.access_jitter_s
        + stack.radio.airtime(packet)
        + params.bulk_tick_s
    )
    assert seen_at[0] <= bound + 1e-12


def test_kind_scoped_overhear_filters_unicasts():
    stack = make_bulk(params=FluidParams(congestion_coeff=0.0))
    src = 1
    dst = stack.neighbors(src)[0]
    witness = stack.neighbors(src)[-1]
    assert witness != dst
    overheard = []
    listener = stack.register_overhear(
        witness, lambda _node, p: overheard.append(p), kinds=("report",)
    )
    stack.send(src, dst, "report", {"v": 1})
    stack.send(src, dst, "share", {"v": 2})
    stack.sim.run()
    kinds = {p.kind for p in overheard}
    assert "report" in kinds and "share" not in kinds
    stack.remove_overhear(witness, listener)
    stack.send(src, dst, "report", {"v": 3})
    stack.sim.run()
    assert len([p for p in overheard if p.kind == "report"]) == 1


def test_same_seed_same_outcome_different_seed_differs():
    def run(seed):
        stack = make_bulk(seed=seed)
        received = []
        for node in stack.node_ids():
            stack.register_handler(node, "ping", lambda _node, p: received.append(p))
        for node in stack.node_ids():
            for peer in stack.neighbors(node)[:2]:
                stack.send(node, peer, "ping", {"n": node})
        stack.sim.run()
        return (
            stack.stats.snapshot(),
            stack.counters.total_bytes,
            tuple((p.src, p.dst) for p in received[:20]),
        )

    assert run(3) == run(3)
    # Different seed: different deployment and channel realization (the
    # stats alone can coincide at this density, the full signature not).
    assert run(3) != run(4)


# -- fail_node / dead-sender draw discipline ------------------------------------


def test_dead_nodes_neither_send_nor_receive():
    stack = make_bulk()
    src = 1
    dst = stack.neighbors(src)[0]
    got = []
    stack.register_handler(dst, "ping", lambda _node, p: got.append(p))

    stack.fail_node(dst)
    stack.send(src, dst, "ping")
    stack.sim.run()
    assert got == [] and stack.is_failed(dst)
    tx_before = stack.stats.transmissions

    stack.fail_node(src)
    stack.send(src, dst, "ping")
    stack.sim.run()
    # A dead radio keys up nothing: uncounted everywhere.
    assert stack.stats.transmissions == tx_before
    assert node_tx_messages(stack.counters, src) == 1


def test_dead_sender_burst_drops_without_shifting_streams():
    """A sender that dies with frames still in the unsealed burst must
    vanish without a trace in the draw streams: the surviving frames
    land exactly as in a run where the dead node never sent."""
    seed = 11

    def run(with_doomed_sender: bool):
        stack = make_bulk(seed=seed)
        doomed, live = 1, 2
        received = []
        for node in stack.node_ids():
            stack.register_handler(node, "ping", lambda _node, p: received.append(p))
        if with_doomed_sender:
            stack.send(doomed, stack.neighbors(doomed)[0], "ping", {"v": 0})
            stack.fail_node(doomed)  # burst still unsealed: no draws yet
        stack.send(live, stack.neighbors(live)[0], "ping", {"v": 0})
        stack.sim.run()
        return (
            stack.stats.transmissions,
            stack.stats.deliveries,
            sorted((p.src, p.dst) for p in received),
        )

    with_dead = run(True)
    without = run(False)
    assert with_dead == without
    assert with_dead[0] == 1  # the doomed frame was never counted


def test_fail_node_flushes_banked_rx_energy_first():
    """rx bytes banked while a node was alive are charged to it before
    it is marked dead (afterwards the flush skips dead receivers)."""
    stack = make_bulk()
    src = 1
    victim = stack.neighbors(src)[0]
    stack.broadcast(src, "hello", {"depth": 0})
    stack.flush()  # seal: tx accounted, rx bytes banked against src
    stack.fail_node(victim)
    assert stack.energy.spent(victim) > 0.0


# -- flush ---------------------------------------------------------------------


def test_flush_is_idempotent_and_cheap_when_empty():
    stack = make_bulk()
    stack.flush()
    stack.flush()  # empty burst: no draws, no queue growth
    assert stack.stats.transmissions == 0
    src = 1
    stack.send(src, stack.neighbors(src)[0], "ping")
    stack.flush()
    tx = stack.stats.transmissions
    stack.flush()
    assert stack.stats.transmissions == tx == 1


def test_flush_and_lazy_seal_sample_identical_streams():
    """Eager (flush) and lazy (resolve-tick) sealing draw the same
    coins in the same order — each frame keys up relative to its own
    stored transmit instant, so the burst boundary is costless."""
    seed = 13

    def run(eager: bool):
        stack = make_bulk(seed=seed)
        received = []
        for node in stack.node_ids():
            stack.register_handler(node, "ping", lambda _node, p: received.append(p))
        for node in (1, 2, 3):
            stack.broadcast(node, "ping", {"n": node})
            if eager:
                stack.flush()
        stack.sim.run()
        return (
            stack.stats.snapshot(),
            sorted((p.src, p.dst) for p in received),
        )

    assert run(True) == run(False)


def test_send_many_counts_like_per_row_sends():
    """One ``send_many`` batch per kind records the same per-node,
    per-kind tx and rx counters as the equivalent per-row
    ``send``/``broadcast`` loop: same jitter block, same loss block."""
    seed = 21
    rng = np.random.default_rng(5)
    batches = []
    for kind in ("share", "hello", "share"):
        src = rng.integers(0, 80, size=40)
        dst = [
            BROADCAST if rng.random() < 0.3 else int(rng.integers(0, 80))
            for _ in src
        ]
        sizes = rng.integers(20, 90, size=40)
        batches.append((kind, src.tolist(), dst, sizes.tolist()))

    def run(bulk: bool):
        stack = make_bulk(seed=seed)
        # Handlers see exactly the addressed receptions: an independent
        # tally of what the rx counters must hold.
        heard = {node: [0, 0] for node in stack.node_ids()}

        def tally(node, packet):
            heard[node][0] += 1
            heard[node][1] += packet.size_bytes

        for node in stack.node_ids():
            for kind in ("share", "hello"):
                stack.register_handler(node, kind, tally)
        for kind, src, dst, sizes in batches:
            if bulk:
                stack.send_many(kind, src, dst, sizes)
            else:
                for row_src, row_dst, row_size in zip(src, dst, sizes):
                    if row_dst == BROADCAST:
                        stack.broadcast(row_src, kind, None, size_bytes=row_size)
                    else:
                        stack.send(row_src, row_dst, kind, None, size_bytes=row_size)
                stack.flush()
            stack.sim.run()
        counters = stack.counters
        assert sum(count for count, _ in heard.values()) == counters.total_rx_messages
        assert all(
            node_rx_bytes(counters, node) == rx_bytes
            for node, (_, rx_bytes) in heard.items()
        )
        return (
            [
                (
                    node_tx_messages(counters, node),
                    node_tx_bytes(counters, node),
                    node_rx_bytes(counters, node),
                )
                for node in stack.node_ids()
            ],
            counters.by_kind(),
            counters.snapshot(),
            stack.stats.snapshot(),
        )

    per_row = run(False)
    assert per_row == run(True)
    assert per_row[2]["rx_messages"] > 0
    assert {b.kind for b in per_row[1]} == {"share", "hello"}


# -- parameter validation -------------------------------------------------------


def test_bulk_tick_must_be_positive():
    with pytest.raises(Exception):
        FluidParams(bulk_tick_s=0.0)
    with pytest.raises(Exception):
        FluidParams(bulk_tick_s=-0.01)
