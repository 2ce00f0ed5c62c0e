"""Seeded byte-identity regression for the dense-field hot path.

The medium/kernel fast paths (per-node overlap counters, tuple heap
entries, lazy corruption maps, memoized airtimes) are pure optimizations:
a seeded run must produce *exactly* the outputs the straightforward
implementation produced — same trace bytes, same :class:`MediumStats`,
same kernel counters, same round result. The golden hashes below were
captured on the pre-optimization revision; any divergence means an RNG
draw moved, an event reordered, or a float changed width.

``profile.phase`` records are excluded from the trace hash because they
embed host wall-clock (``wall_s``), which is unstable even on unchanged
code.
"""

import hashlib

import numpy as np

from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.core.results import Verdict
from repro.experiments.common import make_readings
from repro.net.radio import RadioParams
from repro.topology.deploy import uniform_deployment

# Dense field: 150 nodes on a 250 m square with 50 m radios gives mean
# degree ~16.5 — well inside the overlap-heavy regime the fast paths
# target, yet quick enough for tier-1.
NUM_NODES = 150
FIELD_M = 250.0
RANGE_M = 50.0
SEED = 42

#: Goldens first captured on the pre-optimization revision (commit
#: 8e1c7b5), re-recorded when Phase II began merging census records at
#: each relay (one census frame per tree node per depth slot) and
#: jittering the census and report hops' retries: that change moves
#: frames, events and draws, and the lossy round, which
#: had lost two census records (107 contributors against a census of
#: 96), now gets every record but one through and is accepted (104
#: against 101, within Th). The lossy round moved again when witnesses
#: began jittering each alarm copy's send (same value and contributors).
GOLDEN_CLEAN = {
    "trace_sha256": "2574124b3576c7f69a26e115638586ba9b65258b922b6ada15f4b0149d2415d8",
    "medium": {
        "transmissions": 2499,
        "deliveries": 41348,
        "collisions": 1179,
        "ambient_losses": 0,
        "half_duplex_losses": 0,
    },
    "kernel": {
        "scheduled": 48346,
        "fired": 48346,
        "cancelled": 0,
        "max_queue_len": 227,
    },
    "value": 70309.82,
    "contributors": 129,
}
GOLDEN_LOSSY = {
    "trace_sha256": "8f965519a14025dcc76ee8a729682fa4b463dffe2d46c8a8a4b988c04d4126cc",
    "medium": {
        "transmissions": 2571,
        "deliveries": 36616,
        "collisions": 677,
        "ambient_losses": 6227,
        "half_duplex_losses": 0,
    },
    "kernel": {
        "scheduled": 43679,
        "fired": 43679,
        "cancelled": 0,
        "max_queue_len": 231,
    },
    "value": 56237.1,
    "contributors": 104,
}


def _run_dense_round(radio=None, kill=None):
    """One seeded dense-field iCPDA round; returns comparable outputs."""
    deployment = uniform_deployment(
        NUM_NODES,
        field_size=FIELD_M,
        radio_range=RANGE_M,
        rng=np.random.default_rng(SEED),
    )
    readings = make_readings(NUM_NODES, rng=np.random.default_rng(SEED + 10_000))
    proto = IcpdaProtocol(
        deployment, IcpdaConfig(), seed=SEED, radio=radio, trace=True
    )
    if kill is not None:
        proto.stack.fail_node(kill)
    proto.setup()
    result = proto.run_round(readings)
    trace_bytes = "\n".join(
        record.to_json()
        for record in proto.sim.trace
        if record.category != "profile.phase"
    ).encode()
    return {
        "trace_sha256": hashlib.sha256(trace_bytes).hexdigest(),
        "trace_bytes": trace_bytes,
        "medium": proto.stack.medium.stats.snapshot(),
        "kernel": proto.sim.stats.snapshot(),
        "result_repr": repr(result),
        "verdict": result.verdict,
        "value": result.value,
        "contributors": result.contributors,
    }


def _assert_same_run(first, second):
    assert first["trace_bytes"] == second["trace_bytes"]
    assert first["medium"] == second["medium"]
    assert first["kernel"] == second["kernel"]
    assert first["result_repr"] == second["result_repr"]


def _assert_matches_golden(run, golden):
    assert run["medium"] == golden["medium"]
    assert run["kernel"] == golden["kernel"]
    assert run["value"] == golden["value"]
    assert run["contributors"] == golden["contributors"]
    assert run["trace_sha256"] == golden["trace_sha256"]


class TestDenseRoundByteIdentity:
    def test_clean_round_repeats_and_matches_golden(self):
        first = _run_dense_round()
        second = _run_dense_round()
        _assert_same_run(first, second)
        assert first["verdict"] is Verdict.ACCEPTED
        _assert_matches_golden(first, GOLDEN_CLEAN)

    def test_lossy_round_repeats_and_matches_golden(self):
        radio = RadioParams(range_m=RANGE_M, ambient_loss=0.05, edge_fading=0.3)
        first = _run_dense_round(radio=radio, kill=77)
        second = _run_dense_round(radio=radio, kill=77)
        _assert_same_run(first, second)
        assert first["verdict"] is Verdict.ACCEPTED
        _assert_matches_golden(first, GOLDEN_LOSSY)
