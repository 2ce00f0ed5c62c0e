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

#: Goldens captured on the pre-optimization revision (commit 8e1c7b5);
#: the full kernel snapshot (``max_queue_len`` included) was recorded
#: later, on the last revision that scheduled one kernel event per
#: receiver of a frame.
GOLDEN_CLEAN = {
    "trace_sha256": "3a15c4ad2d9f3a784b9510cde2567df394d67349cbf895bdadb399f48b40e990",
    "medium": {
        "transmissions": 2665,
        "deliveries": 44355,
        "collisions": 1156,
        "ambient_losses": 0,
        "half_duplex_losses": 0,
    },
    "kernel": {
        "scheduled": 51687,
        "fired": 51687,
        "cancelled": 0,
        "max_queue_len": 208,
    },
    "value": 74259.71,
    "contributors": 135,
}
GOLDEN_LOSSY = {
    "trace_sha256": "27a3d6ab0578c12cce8f7d0a8e122ef990a08f029f3ad975e4db8f1ee2eb0abd",
    "medium": {
        "transmissions": 2799,
        "deliveries": 40005,
        "collisions": 986,
        "ambient_losses": 6776,
        "half_duplex_losses": 0,
    },
    "kernel": {
        "scheduled": 47538,
        "fired": 47538,
        "cancelled": 0,
        "max_queue_len": 194,
    },
    "value": None,
    "contributors": 107,
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
        assert first["verdict"] is Verdict.REJECTED_MISMATCH
        _assert_matches_golden(first, GOLDEN_LOSSY)
