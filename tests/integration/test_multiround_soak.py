"""Multi-round soak: one long-lived network, many epochs.

Checks the properties continuous operation depends on: every clean
epoch accepted, per-round counters monotone, energy strictly
increasing, no handler-registration leaks across rounds (stale handlers
from round k corrupting round k+1 was a real class of bug during
development — overhear listeners are cleared per round)."""

import numpy as np
import pytest

from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.topology.deploy import uniform_deployment

ROUNDS = 5


@pytest.fixture(scope="module")
def soak():
    deployment = uniform_deployment(
        110, field_size=260.0, radio_range=50.0, rng=np.random.default_rng(55)
    )
    protocol = IcpdaProtocol(deployment, IcpdaConfig(), seed=55)
    protocol.setup()
    rng = np.random.default_rng(56)
    results = []
    checkpoints = []
    for round_id in range(1, ROUNDS + 1):
        readings = {
            i: float(rng.uniform(10, 30)) for i in range(1, 110)
        }
        result = protocol.run_round(readings, round_id=round_id)
        results.append((result, sum(readings.values())))
        checkpoints.append(
            (
                protocol.stack.counters.total_bytes,
                protocol.stack.energy.report().total_j,
                protocol.sim.now,
            )
        )
    return results, checkpoints, protocol


class TestSoak:
    def test_every_round_accepted(self, soak):
        results, _, _ = soak
        verdicts = [r.verdict.value for r, _ in results]
        assert verdicts == ["accepted"] * ROUNDS, verdicts

    def test_values_track_truth_every_round(self, soak):
        results, _, _ = soak
        for result, truth in results:
            assert result.value == pytest.approx(truth, rel=0.25)
            assert 0.7 < result.accuracy <= 1.0

    def test_counters_strictly_increase(self, soak):
        _, checkpoints, _ = soak
        byte_counts = [c[0] for c in checkpoints]
        energies = [c[1] for c in checkpoints]
        clocks = [c[2] for c in checkpoints]
        assert byte_counts == sorted(byte_counts) and len(set(byte_counts)) == ROUNDS
        assert energies == sorted(energies) and len(set(energies)) == ROUNDS
        assert clocks == sorted(clocks) and len(set(clocks)) == ROUNDS

    def test_per_round_cost_is_stable(self, soak):
        """No leak: the byte cost of round k+1 stays within 2x of round
        1 (stale handlers reprocessing old traffic would blow this up)."""
        _, checkpoints, _ = soak
        byte_counts = [c[0] for c in checkpoints]
        deltas = [
            byte_counts[i] - (byte_counts[i - 1] if i else 0)
            for i in range(ROUNDS)
        ]
        first = deltas[0]
        for delta in deltas[1:]:
            assert 0.4 * first < delta < 2.0 * first

    def test_overhear_listeners_do_not_accumulate(self, soak):
        _, _, protocol = soak
        stack = protocol.stack
        for node in stack.node_ids():
            # Exchange + integrity each register at most one listener
            # per round; after N rounds there must not be ~2N.
            registered = len(stack._wild_overhear.get(node, ())) + sum(
                len(by_node.get(node, ())) for by_node in stack._kind_overhear.values()
            )
            assert registered <= 4
