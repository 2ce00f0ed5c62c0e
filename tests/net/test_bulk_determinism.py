"""Seeded byte-identity regression for the bulk fluid transport.

The ``fluid-bulk`` hot path (when batches are sealed, when they are
resolved, how replayed frames are grouped) is an optimization: a seeded
round must produce *exactly* the outputs recorded in the goldens below —
round result, per-phase bytes, per-node per-kind tx/rx counters, channel
statistics, per-node energy and kernel event counts. The goldens were
captured before replayed frames were logged and settled in row-bounded
batches; any divergence means a jitter or loss draw moved, a candidate
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
from tests.counter_reads import node_rx_bytes, node_tx_bytes, node_tx_messages

NUM_NODES = 300
SEED = 3
#: Node crash-stopped between the two rounds of the ``batched_kill`` run.
KILLED = 17

#: sha256 of every round's fingerprint, plus the readable parts a
#: mismatch is easiest to diagnose from.
GOLDEN = {
    "batched": {
        "sha256": "dd9b2e014dbe4553ee0b47330f38e4769c0bb68c027b1b3b5487eee9ecfedcc9",
        "stats": {
            "transmissions": 10415,
            "deliveries": 30654,
            "collisions": 246,
            "ambient_losses": 0,
            "half_duplex_losses": 0,
        },
        "fired": 11227,
    },
    "batched_kill": {
        "sha256": "2fc473596b64c32a3daced4f9d1a3778d4811e28b088577717358d6bc9e3bc43",
        "stats": {
            "transmissions": 10405,
            "deliveries": 30535,
            "collisions": 269,
            "ambient_losses": 0,
            "half_duplex_losses": 0,
        },
        "fired": 11217,
    },
    "scalar": {
        "sha256": "fc3d50675dc8cdd8339c4c45920152491dfd21a7cb3e55f19f0fa3284ab1f40d",
        "stats": {
            "transmissions": 10587,
            "deliveries": 39099,
            "collisions": 220,
            "ambient_losses": 0,
            "half_duplex_losses": 0,
        },
        "fired": 16776,
    },
}


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
        counters.by_kind(),
        counters.snapshot(),
        stack.stats.snapshot(),
        [repr(energy.spent(node)) for node in nodes],
        repr(energy.snapshot()),
        protocol.sim.stats.fired,
    )


def _run(engine: str, kill=None) -> dict:
    protocol = build_icpda(
        NUM_NODES, IcpdaConfig(engine=engine), seed=SEED, transport="fluid-bulk"
    )
    readings = make_readings(NUM_NODES, rng=np.random.default_rng(SEED + 10_000))
    rounds = []
    for round_id in range(2):
        if kill is not None and round_id == 1:
            protocol.stack.fail_node(kill)
        result = protocol.run_round(readings, round_id=round_id)
        rounds.append(_fingerprint(protocol, result))
    return {
        "sha256": hashlib.sha256(repr(rounds).encode()).hexdigest(),
        "stats": rounds[-1][5],
        "fired": rounds[-1][-1],
        "accepted": ["Verdict.ACCEPTED" in r[0] for r in rounds],
    }


@pytest.mark.parametrize(
    "name,engine,kill,log_rows",
    [
        ("batched", "batched", None, None),
        ("batched_kill", "batched", KILLED, None),
        ("scalar", "scalar", None, None),
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
    run = _run(engine, kill)
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
        counters.by_kind(),
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
            assert stack._log and not stack._q_time
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
    assert not stack._log and stack._q_time
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
