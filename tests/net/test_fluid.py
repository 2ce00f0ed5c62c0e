"""Unit tests for the analytic fluid transport backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.fluid import FluidParams, FluidTransport
from repro.net.radio import RadioParams
from repro.sim.kernel import Simulator
from repro.topology.deploy import uniform_deployment
from tests.counter_reads import node_rx_messages, node_tx_messages
from tests.oracles import fluid_loss_row

#: A radio whose every link can lose a frame, even one flying alone.
LOSSY = RadioParams(ambient_loss=0.02, edge_fading=0.5)


def make_fluid(seed=7, num_nodes=80, params=None, radio=None):
    deployment = uniform_deployment(
        num_nodes, field_size=260.0, rng=np.random.default_rng(seed)
    )
    sim = Simulator(seed=seed)
    return FluidTransport(sim, deployment, radio=radio, params=params)


def test_broadcast_reaches_neighbors_and_counts():
    stack = make_fluid()
    src = 1
    heard = []
    for peer in stack.neighbors(src):
        stack.register_handler(peer, "hello", lambda _node, p: heard.append(p))
    stack.broadcast(src, "hello", {"depth": 0})
    stack.sim.run()
    assert stack.stats.transmissions == 1
    # No contention from a single frame: only ambient/fading losses apply.
    assert len(heard) == stack.stats.deliveries
    assert len(heard) + stack.stats.ambient_losses + stack.stats.collisions == len(
        stack.neighbors(src)
    )
    assert stack.counters.total_bytes > 0


def test_unicast_delivers_to_destination_only():
    stack = make_fluid(params=FluidParams(congestion_coeff=0.0))
    radio = stack.radio
    assert radio.ambient_loss == 0.0
    src = 1
    dst = stack.neighbors(src)[0]
    got = []
    stack.register_handler(dst, "share", lambda _node, p: got.append(p))
    other = stack.neighbors(src)[-1]
    stack.register_handler(other, "share", lambda _node, p: got.append(p))
    stack.send(src, dst, "share", {"v": 3})
    stack.sim.run()
    assert len(got) == 1 and got[0].dst == dst


def test_same_seed_same_outcome_different_seed_differs():
    def run(seed):
        stack = make_fluid(seed=seed)
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
            tuple(p.seq for p in received[:20]),
        )

    assert run(3)[:2] == run(3)[:2]
    assert run(3)[0] != run(4)[0]


def test_kind_scoped_overhear_filters_unicasts():
    stack = make_fluid(params=FluidParams(congestion_coeff=0.0))
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


def test_dead_nodes_neither_send_nor_receive():
    stack = make_fluid()
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


def test_reset_accounting_clears_all_namespaces():
    stack = make_fluid()
    for node in stack.node_ids():
        for peer in stack.neighbors(node)[:2]:
            stack.send(node, peer, "ping")
    stack.sim.run()
    assert stack.counters.total_bytes > 0
    assert stack.stats.transmissions > 0
    assert any(stack.energy.spent(n) > 0 for n in stack.node_ids())

    stack.reset_accounting()
    assert stack.counters.total_bytes == 0
    assert stack.stats.snapshot() == {
        "transmissions": 0,
        "deliveries": 0,
        "collisions": 0,
        "ambient_losses": 0,
        "half_duplex_losses": 0,
    }
    assert all(stack.energy.spent(n) == 0.0 for n in stack.node_ids())
    # The MediumStats-compatible view aliases the same (reset) object.
    assert stack.medium.stats.transmissions == 0


def test_congestion_grows_with_degree():
    params = FluidParams()
    stack = make_fluid(params=params)
    degrees = [stack.degree(n) for n in stack.node_ids()]
    lo, hi = min(degrees), max(degrees)
    if lo == hi:
        pytest.skip("degenerate topology: uniform degree")
    lo_node = next(n for n in stack.node_ids() if stack.degree(n) == lo)
    hi_node = next(n for n in stack.node_ids() if stack.degree(n) == hi)
    assert stack._congestion[hi_node] > stack._congestion[lo_node]
    assert stack._congestion[hi_node] <= params.congestion_cap


def test_radio_range_must_match_deployment():
    deployment = uniform_deployment(30, rng=np.random.default_rng(0))
    with pytest.raises(Exception):
        FluidTransport(
            Simulator(seed=0),
            deployment,
            radio=RadioParams(range_m=deployment.radio_range * 2),
        )


def test_fluid_params_validation():
    with pytest.raises(Exception):
        FluidParams(congestion_cap=-0.1)
    with pytest.raises(Exception):
        FluidParams(access_jitter_s=-1.0)


def test_link_table_matches_the_per_sender_oracle():
    """Every edge of the whole-graph table holds exactly the floats the
    per-sender loss law gives: same neighbors, same order, exact ==."""
    stack = make_fluid(seed=5, num_nodes=150, radio=LOSSY)
    table = list(
        zip(
            stack._edge_loss_contended.tolist(),
            stack._edge_share.tolist(),
            stack._edge_loss_free.tolist(),
        )
    )
    edges = 0
    for sender in stack.node_ids():
        start, end = int(stack._indptr[sender]), int(stack._indptr[sender + 1])
        assert tuple(stack._indices[start:end].tolist()) == stack.neighbors(sender)
        assert table[start:end] == fluid_loss_row(stack, sender)
        edges += end - start
    assert edges == len(table) > 0
    assert all(free > 0.0 for _, _, free in table)


def _hearers(stack, kind):
    """Register a ``kind`` handler at every node; return what they hear."""
    heard = []
    for node in stack.node_ids():
        stack.register_handler(
            node, kind, lambda receiver, _packet: heard.append(receiver)
        )
    return heard


def test_out_of_range_unicast_delivers_nothing_and_draws_no_coin():
    def run(stray: bool):
        stack = make_fluid(radio=LOSSY)
        heard = _hearers(stack, "ping")
        src = 1
        far = next(
            node
            for node in stack.node_ids()
            if node != src and node not in stack.neighbors(src)
        )
        if stray:
            stack.send(src, far, "ping")
            stack.sim.run()
            assert heard == []
            assert stack.stats.deliveries == 0
            assert stack.stats.ambient_losses == stack.stats.collisions == 0
        # A later lone broadcast samples the same loss coins either way.
        stack.broadcast(src, "ping")
        stack.sim.run()
        stats = stack.stats.snapshot()
        del stats["transmissions"]
        return heard, stats

    assert run(stray=True) == run(stray=False)


def test_listener_killing_a_later_neighbour_leaves_it_unserved():
    """One pass in adjacency order: a neighbour killed by an earlier
    receiver's listener is skipped when the pass reaches it, gets no
    frame and draws no coin, exactly as if it had died before the send."""
    src = 1

    def run(kill_mid_fan_out: bool):
        stack = make_fluid(radio=LOSSY)
        heard = _hearers(stack, "beacon")
        first, victim = stack.neighbors(src)[0], stack.neighbors(src)[-1]
        if kill_mid_fan_out:
            stack.register_overhear(
                first,
                lambda node, p: stack.fail_node(victim),
                kinds=("beacon",),
            )
        else:
            stack.fail_node(victim)
        for _ in range(3):
            stack.broadcast(src, "beacon")
            stack.sim.run()
        assert victim not in heard
        assert node_rx_messages(stack.counters, victim) == 0
        return heard, stack.stats.snapshot()

    assert len(make_fluid().neighbors(src)) > 2
    assert run(kill_mid_fan_out=True) == run(kill_mid_fan_out=False)
