"""Seeded byte-identity regression for the per-frame fluid transport.

``transport="fluid"`` is the default analytic backend and the one every
localization probe runs on. How it reads its per-link loss table, draws
its coins and fans a frame out is an implementation detail: a seeded run
must reproduce exactly the outputs recorded below — round result,
per-phase bytes, per-node per-kind tx/rx counters, channel statistics,
per-node energy and kernel event counts (the fingerprint of
``test_bulk_determinism``). The goldens were captured while delivery
still built a per-sender loss row on first use, and re-recorded when
Phase II began merging census records at each relay and the census and
report hops began jittering their retries, and again when witnesses
began jittering each alarm copy's send; any divergence
means a loss coin moved, a receiver set changed, or an energy float
accumulated in a different order.

Three cases cover the delivery paths:

* ``kill``: two rounds with a node crash-stopped between them (dead
  receivers draw no coin);
* ``lossy``: a radio with ambient loss and edge fading, so frames that
  fly alone draw coins too and both loss causes are counted;
* ``wildcard``: promiscuous listeners without a kinds hint, so every
  unicast fans out over its sender's neighbors.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.experiments.common import make_readings
from repro.net.radio import RadioParams
from repro.topology.deploy import uniform_deployment
from tests.net.test_bulk_determinism import _fingerprint

NUM_NODES = 300
SEED = 3
#: Node crash-stopped between the two rounds of the ``kill`` run.
KILLED = 17
#: Nodes carrying a wildcard listener in the ``wildcard`` run.
EAVESDROPPERS = frozenset(range(5, NUM_NODES, 23))

GOLDEN = {
    "kill": {
        "sha256": "959e5cf06e59b616d5fca4b6f0df7465b51933b8b208f88dfeb60489e7e163b0",
        "stats": {
            "transmissions": 9789,
            "deliveries": 39275,
            "collisions": 195,
            "ambient_losses": 0,
            "half_duplex_losses": 0,
        },
        "fired": 15945,
        "heard": 0,
    },
    "lossy": {
        "sha256": "4eb5796d8e20453f818cd658def2b9ffedab3af768b4db313cba1a2a8136f226",
        "stats": {
            "transmissions": 9670,
            "deliveries": 33675,
            "collisions": 136,
            "ambient_losses": 7983,
            "half_duplex_losses": 0,
        },
        "fired": 15940,
        "heard": 0,
    },
    "wildcard": {
        "sha256": "4edd004d40378cbfa28adb31cf619d923c119a62df96553df1684abc2b00a582",
        "stats": {
            "transmissions": 9990,
            "deliveries": 44536,
            "collisions": 224,
            "ambient_losses": 0,
            "half_duplex_losses": 0,
        },
        "fired": 16179,
        "heard": 6727,
    },
}


def _attach_wildcard(protocol: IcpdaProtocol, heard: list) -> None:
    """Put a wildcard listener on every eavesdropper; the protocol
    detaches only its own listeners, so it hears both rounds."""

    def listener(node: int, packet) -> None:
        heard.append((node, packet.src, packet.dst, packet.kind))

    for node in sorted(EAVESDROPPERS):
        protocol.stack.register_overhear(node, listener)


def _run(case: str) -> dict:
    deployment = uniform_deployment(NUM_NODES, rng=np.random.default_rng(SEED))
    radio = None
    if case == "lossy":
        radio = RadioParams(
            range_m=deployment.radio_range, ambient_loss=0.02, edge_fading=0.5
        )
    protocol = IcpdaProtocol(
        deployment,
        IcpdaConfig(engine="scalar"),
        seed=SEED,
        radio=radio,
        transport="fluid",
    )
    heard: list = []
    if case == "wildcard":
        _attach_wildcard(protocol, heard)
    protocol.setup()
    readings = make_readings(NUM_NODES, rng=np.random.default_rng(SEED + 10_000))
    rounds = []
    for round_id in range(2):
        if case == "kill" and round_id == 1:
            protocol.stack.fail_node(KILLED)
        result = protocol.run_round(readings, round_id=round_id)
        rounds.append(_fingerprint(protocol, result))
    rounds.append(heard)
    return {
        "sha256": hashlib.sha256(repr(rounds).encode()).hexdigest(),
        "stats": rounds[-2][5],
        "fired": rounds[-2][-1],
        "heard": len(heard),
    }


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_seeded_fluid_rounds_match_golden(case):
    run = _run(case)
    golden = GOLDEN[case]
    assert run["stats"] == golden["stats"]
    assert run["fired"] == golden["fired"]
    assert run["heard"] == golden["heard"]
    assert run["sha256"] == golden["sha256"]


def test_lossy_radio_counts_both_loss_causes():
    stats = GOLDEN["lossy"]["stats"]
    assert stats["collisions"] > 0 and stats["ambient_losses"] > 0
