"""Seeded byte-identity regression for the bulk fluid transport.

The ``fluid-bulk`` hot path (when batches are sealed, when they are
resolved, how replayed frames are grouped) is an optimization: a seeded
round must produce *exactly* the outputs recorded in the goldens below —
round result, per-phase bytes, per-node per-kind tx/rx counters, channel
statistics, per-node energy and kernel event counts (and, for the
``rebuild`` run, the re-flooded tree itself). The goldens were
captured before replayed frames were logged and settled in row-bounded
batches, and re-recorded when Phase II began merging census records at
each relay and the census and report hops began jittering their retries
(the scalar round again when witnesses began jittering each alarm
copy's send); any divergence means a jitter or loss draw moved, a candidate
set changed, or a float accumulated in a different order.

The contract tests below pin the settle triggers: a frame batch nobody
can observe is only logged, and every read or state change that could
tell the difference settles it first.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.config import IcpdaConfig
from repro.experiments.common import build_icpda, make_readings
from repro.net import fluid
from repro.net.fluid import BulkFluidTransport
from repro.net.packet import BROADCAST
from tests.net.test_fluid_bulk import make_bulk
from tests.counter_reads import by_kind, node_rx_bytes, node_tx_bytes, node_tx_messages

NUM_NODES = 300
SEED = 3
#: Node crash-stopped between the two rounds of the ``batched_kill`` run.
KILLED = 17
#: Relays the ``rebuild`` run kills after round 0: those with the largest
#: subtrees, whose loss a re-flood has to route around.
REBUILD_KILLS = 3

#: sha256 of every round's fingerprint, plus the readable parts a
#: mismatch is easiest to diagnose from.
GOLDEN = {
    "batched": {
        "sha256": "9eea50d66ed2fb31befb4eff90315d020551267189341e1aced58891b4a41f17",
        "stats": {
            "transmissions": 9849,
            "deliveries": 30076,
            "collisions": 258,
            "ambient_losses": 0,
            "half_duplex_losses": 0,
        },
        "fired": 10663,
    },
    "batched_kill": {
        "sha256": "82e5816f1409ddda70fc0835688781fe23b9249e55e20685c92a2921aa861c0a",
        "stats": {
            "transmissions": 9839,
            "deliveries": 29985,
            "collisions": 253,
            "ambient_losses": 0,
            "half_duplex_losses": 0,
        },
        "fired": 10653,
    },
    "scalar": {
        "sha256": "6e2ea9164ba0c7bfeef102fd3efd2e7fa28474d5f04ec77c0c9b0ca433bc7a89",
        "stats": {
            "transmissions": 9978,
            "deliveries": 38489,
            "collisions": 209,
            "ambient_losses": 0,
            "half_duplex_losses": 0,
        },
        "fired": 16381,
    },
    "rebuild": {
        "sha256": "cb3e2bf3532b49097d57c131f58d824468c6aeab32a044aa2e81101f78a2b76c",
        "stats": {
            "transmissions": 10152,
            "deliveries": 33784,
            "collisions": 264,
            "ambient_losses": 0,
            "half_duplex_losses": 0,
        },
        "fired": 11271,
    },
}


def _tree_print(tree) -> tuple:
    return (
        sorted(tree.parents.items()),
        sorted(tree.depths.items()),
        sorted(tree.children.items()),
        sorted(tree.query_at.items()),
    )


def _largest_relays(tree, count: int) -> list:
    """The ``count`` non-root nodes with the largest subtrees (ties to
    the lower id)."""
    size = {}
    for node in sorted(tree.depths, key=tree.depths.get, reverse=True):
        size[node] = 1 + sum(size[child] for child in tree.children[node])
    relays = [node for node in size if node != tree.root]
    return sorted(relays, key=lambda node: (-size[node], node))[:count]


def _fingerprint(protocol, result) -> tuple:
    stack = protocol.stack
    counters = stack.counters
    energy = stack.energy
    nodes = list(stack.node_ids())
    return (
        repr(result),
        sorted(protocol.phase_bytes.items()),
        [
            (
                node_tx_messages(counters, node),
                node_tx_bytes(counters, node),
                node_rx_bytes(counters, node),
            )
            for node in nodes
        ],
        by_kind(counters),
        counters.snapshot(),
        stack.stats.snapshot(),
        [repr(energy.spent(node)) for node in nodes],
        repr(energy.snapshot()),
        protocol.sim.stats.fired,
    )


def _run(engine: str, kill=None, rebuild: bool = False) -> dict:
    protocol = build_icpda(
        NUM_NODES, IcpdaConfig(engine=engine), seed=SEED, transport="fluid-bulk"
    )
    readings = make_readings(NUM_NODES, rng=np.random.default_rng(SEED + 10_000))
    rounds, accepted = [], []
    for round_id in range(2):
        if kill is not None and round_id == 1:
            protocol.stack.fail_node(kill)
        if rebuild and round_id == 1:
            for node in _largest_relays(protocol.tree, REBUILD_KILLS):
                protocol.stack.fail_node(node)
            rounds.append(_tree_print(protocol.rebuild_tree()))
        result = protocol.run_round(readings, round_id=round_id)
        rounds.append(_fingerprint(protocol, result))
        accepted.append("Verdict.ACCEPTED" in rounds[-1][0])
    return {
        "sha256": hashlib.sha256(repr(rounds).encode()).hexdigest(),
        "stats": rounds[-1][5],
        "fired": rounds[-1][-1],
        "accepted": accepted,
    }


@pytest.mark.parametrize(
    "name,engine,kill,log_rows",
    [
        ("batched", "batched", None, None),
        ("batched_kill", "batched", KILLED, None),
        ("scalar", "scalar", None, None),
        # Round 0, kill the biggest relays, re-flood Phase I, round 1.
        ("rebuild", "batched", None, None),
        # A tiny replay-log bound settles at almost every bucket: the
        # bound trades memory for calls and must not move an output.
        ("batched", "batched", None, 64),
        ("batched_kill", "batched", KILLED, 64),
    ],
)
def test_seeded_bulk_rounds_match_golden(
    name, engine, kill, log_rows, monkeypatch
):
    if log_rows is not None:
        monkeypatch.setattr(fluid, "_LOG_ROWS", log_rows)
    run = _run(engine, kill, rebuild=name == "rebuild")
    golden = GOLDEN[name]
    assert run["stats"] == golden["stats"]
    assert run["fired"] == golden["fired"]
    assert run["accepted"] == [True, True]
    assert run["sha256"] == golden["sha256"]


# -- settle contract ------------------------------------------------------------


def _batch(stack: BulkFluidTransport, rng, rows: int = 60):
    """Random same-kind rows: unicasts to neighbors (and out of range)
    plus some broadcasts."""
    src = rng.integers(0, 80, size=rows).tolist()
    dst = []
    for node in src:
        roll = rng.random()
        if roll < 0.2:
            dst.append(BROADCAST)
        elif roll < 0.3 or not stack.neighbors(node):
            dst.append(int(rng.integers(0, 80)))
        else:
            peers = stack.neighbors(node)
            dst.append(peers[int(rng.integers(0, len(peers)))])
    return src, dst, rng.integers(20, 90, size=rows).tolist()


def _books(stack: BulkFluidTransport) -> tuple:
    """Everything a reader can see of the accounting."""
    counters = stack.counters
    nodes = list(stack.node_ids())
    return (
        [
            (
                node_tx_messages(counters, node),
                node_tx_bytes(counters, node),
                node_rx_bytes(counters, node),
            )
            for node in nodes
        ],
        by_kind(counters),
        counters.snapshot(),
        stack.medium.stats.snapshot(),
        [repr(stack.energy.spent(node)) for node in nodes],
        {
            name: metrics
            for name, metrics in stack.sim.metrics.nested().items()
            if name in ("medium", "counters", "energy")
        },
    )


def _drive(logged: bool, probe=None, log_rows=None, monkeypatch=None):
    """Three instants of two send_many calls each; ``logged=False`` makes
    both kinds observable (a handler on node 0) so every call is sealed
    at once, the reference the log must reproduce. ``probe(stack, step)``
    runs right after each instant's sends."""
    if log_rows is not None:
        monkeypatch.setattr(fluid, "_LOG_ROWS", log_rows)
    stack = make_bulk(seed=11)
    if not logged:
        for kind in ("share", "report"):
            stack.register_handler(0, kind, lambda _node, packet: None)
    rng = np.random.default_rng(4)
    seen = []
    for step in range(3):
        stack.sim.run(until=0.05 * step)
        for kind in ("share", "report"):
            stack.send_many(kind, *_batch(stack, rng))
        if logged:
            assert stack._log and not stack._queued()
        if probe is not None:
            seen.append(probe(stack, step))
    stack.flush()
    stack.sim.run()
    return seen, _books(stack), stack.sim.stats.fired, stack.sim.stats.scheduled


@pytest.mark.parametrize("log_rows", [None, 100])
def test_logged_batches_settle_like_sealed_ones(log_rows, monkeypatch):
    """Logging replayed rows and settling them later, in one pass or at
    the row bound, is invisible: same books, same kernel counts."""
    reference = _drive(False)
    assert _drive(True, log_rows=log_rows, monkeypatch=monkeypatch) == reference


#: One read surface each: the first read after a logged call must settle.
READS = {
    "counters": lambda stack: stack.counters.snapshot(),
    "counters_node": lambda stack: [
        node_tx_bytes(stack.counters, node) for node in stack.node_ids()
    ],
    "energy": lambda stack: repr(stack.energy.snapshot()),
    "stats": lambda stack: stack.stats.snapshot(),
    "medium_stats": lambda stack: stack.medium.stats.snapshot(),
    "metrics": lambda stack: stack.sim.metrics.nested()["medium"],
}


@pytest.mark.parametrize("surface", sorted(READS))
def test_mid_run_reads_see_settled_values(surface):
    """A read right after a logged send_many sees what the sealed
    reference shows at the same instant: tx accounting, energy and
    channel statistics (receptions only from their delivery on)."""
    read = READS[surface]
    reference = _drive(False, probe=lambda stack, step: read(stack))
    assert _drive(True, probe=lambda stack, step: read(stack)) == reference
    assert reference[0][0] != read(make_bulk(seed=11))


@pytest.mark.parametrize("action", ["fail_node", "handler", "overhear", "wildcard"])
def test_state_changes_settle_the_log_first(action):
    """``fail_node`` and every registration settle logged rows first:
    the rows keep the receiver set and listeners of their resolve tick,
    exactly as when they were sealed on the spot."""

    def run(logged: bool):
        stack = make_bulk(seed=11)
        if not logged:
            stack.register_handler(0, "share", lambda _node, packet: None)
        heard = []
        src, dst, sizes = _batch(stack, np.random.default_rng(9))
        stack.send_many("share", src, dst, sizes)
        assert bool(stack._log) == logged
        victim = src[0]
        if action == "fail_node":
            stack.fail_node(victim)
        elif action == "handler":
            for node in stack.node_ids():
                stack.register_handler(node, "share", lambda _node, p: heard.append(p))
        elif action == "overhear":
            stack.register_overhear(
                victim, lambda _node, p: heard.append(p), kinds=("share",)
            )
        else:
            stack.register_overhear(victim, lambda _node, p: heard.append(p))
        assert not stack._log
        stack.sim.run()
        return len(heard), _books(stack)

    reference = run(False)
    assert run(True) == reference
    if action != "fail_node":
        assert reference[0] > 0


def test_handled_kind_through_send_many_dispatches_at_its_tick():
    stack = make_bulk(seed=11)
    calls = []
    for node in stack.node_ids():
        stack.register_handler(
            node, "share", lambda _node, packet: calls.append(stack.sim.now)
        )
    stack.sim.run(until=0.0123)
    stack.send_many("share", *_batch(stack, np.random.default_rng(3)))
    assert not stack._log and stack._queued()
    stack.sim.run()
    assert calls and len(set(calls)) == 1
    tick_s = stack.params.bulk_tick_s
    assert 0.0123 < calls[0] <= 0.0123 + stack.params.access_jitter_s + tick_s + 0.01
    assert calls[0] / tick_s == pytest.approx(round(calls[0] / tick_s))


def test_unicast_edge_lookup_matches_fan_out():
    """A unicast nobody overhears takes one edge lookup instead of a CSR
    fan-out; with a listener placed where no sender reaches it, the
    fan-out path sees the same candidates and draws the same coins."""

    def run(listener: bool):
        stack = make_bulk(seed=11)
        quiet = 79
        senders = [
            node
            for node in stack.node_ids()
            if node != quiet and quiet not in stack.neighbors(node)
        ]
        rng = np.random.default_rng(6)
        src = [senders[int(i)] for i in rng.integers(0, len(senders), size=200)]
        dst = [
            int(rng.integers(0, 80))
            if rng.random() < 0.2 or not stack.neighbors(node)
            else stack.neighbors(node)[0]
            for node in src
        ]
        heard = []
        for node in stack.node_ids():
            stack.register_handler(node, "share", lambda _node, p: heard.append(p))
        if listener:
            stack.register_overhear(
                quiet, lambda _node, p: heard.append(p), kinds=("share",)
            )
        stack.send_many("share", src, dst, [50] * len(src))
        stack.sim.run()
        return len(heard), _books(stack)[:4]

    direct = run(False)
    assert direct == run(True)
    assert direct[0] > 0
