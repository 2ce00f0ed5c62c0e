"""Future key-ups (``broadcast_later``) on the bulk fluid transport.

A key-up row must behave exactly like a kernel timer, scheduled at the
call, that broadcasts and flushes at the row's instant: the same draws,
books, resolve ticks, deliveries, trace records and kernel counts — also
with ordinary sends, replayed batches, reads and kills at the instants
in between, and with later calls whose rows key up before earlier ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ScheduleInPastError, SimulationError
from repro.sim.rng import RngRegistry
from tests.net.test_bulk_determinism import _books
from tests.net.test_fluid_bulk import make_bulk

KIND = "beacon"
SEED = 11


def _rows(rng, senders, count):
    src = rng.choice(senders, size=count)
    delays = rng.uniform(0.0, 0.04, size=count)
    sizes = rng.integers(20, 60, size=count)
    payloads = [{"row": int(row)} for row in rng.integers(0, 1000, size=count)]
    return src, delays, sizes, payloads


def _key_up(stack, later: bool, rows) -> None:
    """Submit ``rows`` through ``broadcast_later``, or as the kernel
    timers it stands for."""
    src, delays, sizes, payloads = rows
    if later:
        stack.broadcast_later(KIND, src, delays, sizes, payloads)
        return

    def fire(node, size, payload):
        stack.broadcast(node, KIND, payload, size_bytes=size)
        stack.flush()

    for row in range(len(src)):
        stack.sim.schedule(
            float(delays[row]), fire, (int(src[row]), int(sizes[row]), payloads[row])
        )


def _trace(stack) -> list:
    return [
        (record.time, record.category, record.message, record.fields)
        for record in stack.sim.trace
    ]


def _interleaved(later: bool) -> tuple:
    """Two key-up calls (the second's rows interleave with the first's)
    among ordinary sends, unflushed broadcasts, replayed batches, reads
    and a kill, all at instants in between."""
    stack = make_bulk(seed=SEED)
    stack.sim.trace.enabled = True
    nodes = list(stack.node_ids())
    heard, reads = [], []
    for node in nodes:
        stack.register_handler(
            node,
            KIND,
            lambda node, packet: heard.append(
                (node, packet.src, dict(packet.payload), stack.sim.now)
            ),
        )
    rng = np.random.default_rng(5)
    first, second = _rows(rng, nodes, 40), _rows(rng, nodes, 30)
    sim = stack.sim

    def send(node):
        peer = stack.neighbors(node)[0] if stack.neighbors(node) else node
        stack.send(node, peer, KIND, {"row": -1})

    def spray(node):
        stack.broadcast(node, "share", None, size_bytes=40)  # left unflushed

    def replay(node):
        stack.send_many("share", [node, node + 1], [-1, node], [30, 50])

    def read():
        reads.append((sim.now, stack.counters.snapshot(), repr(stack.energy.snapshot())))

    for at in rng.uniform(0.0, 0.08, size=24).tolist():
        action = rng.integers(0, 4)
        node = int(rng.integers(0, len(nodes) - 1))
        if action == 0:
            sim.schedule(at, send, (node,))
        elif action == 1:
            sim.schedule(at, spray, (node,))
        elif action == 2:
            sim.schedule(at, replay, (node,))
        else:
            sim.schedule(at, read)
    sim.schedule(0.021, stack.fail_node, (int(first[0][5]),))
    sim.schedule(0.003, _key_up, (stack, later, first))
    sim.schedule(0.012, _key_up, (stack, later, second))
    sim.run()
    return heard, reads, _books(stack), sim.stats.snapshot(), _trace(stack)


def test_key_ups_interleaved_with_sends_seal_like_timed_sends():
    reference = _interleaved(later=False)
    assert _interleaved(later=True) == reference
    heard, reads = reference[:2]
    assert len({entry[2]["row"] for entry in heard}) > 40 and reads
    assert any(record[1] == "fluid.dead_tx" for record in reference[-1])


def _killed(later: bool) -> tuple:
    stack = make_bulk(seed=SEED)
    stack.sim.trace.enabled = True
    rows = _rows(np.random.default_rng(8), [3, 9, 14, 27, 40], 25)
    victim = int(rows[0][0])
    stack.sim.schedule(0.001, stack.fail_node, (victim,))
    _key_up(stack, later, rows)
    stack.sim.run()
    next_coin = stack.sim.rng.stream("fluid.bulk.delay").random()
    return victim, rows, next_coin, _books(stack), stack.sim.stats.snapshot(), _trace(stack)


def test_sender_killed_before_its_instant_keys_up_nothing():
    reference = _killed(later=False)
    victim, rows, next_coin = _killed(later=True)[:3]
    assert _killed(later=True)[2:] == reference[2:]
    live = int(np.count_nonzero(rows[0] != victim))
    assert 0 < live < len(rows[0])
    # Only the live rows drew jitter coins.
    assert next_coin == RngRegistry(SEED).uniform_block("fluid.bulk.delay", live + 1)[-1]
    books = reference[3]
    assert books[3]["transmissions"] == live
    assert books[0][victim][0] == 0
    dead = [record for record in reference[-1] if record[1] == "fluid.dead_tx"]
    assert len(dead) == len(rows[0]) - live
    assert [record[3]["node"] for record in dead] == [victim] * len(dead)


def test_key_ups_past_the_run_window_wait_for_the_next_run():
    def drive(later: bool):
        stack = make_bulk(seed=SEED)
        heard = []
        for node in stack.node_ids():
            stack.register_handler(node, KIND, lambda node, packet: heard.append(node))
        _key_up(stack, later, _rows(np.random.default_rng(2), [1, 2, 3], 12))
        windows = []
        for until in (0.01, 0.02, 0.2):
            stack.sim.run(until=until)
            windows.append((len(heard), stack.sim.stats.snapshot(), _books(stack)[3]))
        return windows

    reference = drive(False)
    assert drive(True) == reference
    assert reference[0][0] < reference[-1][0]


def test_broadcast_later_checks_its_columns():
    stack = make_bulk(seed=SEED)
    with pytest.raises(SimulationError):
        stack.broadcast_later(KIND, [1, 2], [0.01], [30, 30], [{}, {}])
    with pytest.raises(ScheduleInPastError):
        stack.broadcast_later(KIND, [1], [-0.01], [30], [{}])
    with pytest.raises(SimulationError):
        stack.broadcast_later(KIND, [500], [0.01], [30], [{}])
    stack.broadcast_later(KIND, [], [], [], [])
    assert stack.sim.stats.scheduled == 0


def test_rows_dropped_by_discard_pending_do_not_come_back():
    """``discard_pending`` drops the pending rows' kernel keys with every
    other event; a later call keys up only its own rows."""
    stack = make_bulk(seed=SEED)
    sim = stack.sim
    stack.broadcast_later(KIND, [1, 2, 3], [0.01, 0.02, 0.03], [30, 30, 30], [{}] * 3)
    assert sim.discard_pending() == 3
    stack.broadcast_later(KIND, [4], [0.005], [30], [{}])
    sim.run()
    assert stack.stats.transmissions == 1
    assert stack.counters.total_messages == 1
    assert sim.stats.scheduled == sim.stats.fired + sim.stats.cancelled
