"""Regression tests for the double-join partition race.

A bounced joiner could once be re-homed twice (re-join timer + a
merge-window announce), landing in two clusters' member lists; its
share assembly then mixed two clusters' polynomials into a garbage
aggregate that the base station *accepted* (observed: accuracy 3.4e10).
These tests pin the fix at three layers.
"""

import numpy as np
import pytest

from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.experiments.common import make_readings
from repro.topology.deploy import uniform_deployment


def run_once(seed: int, num_nodes: int = 200):
    deployment = uniform_deployment(
        num_nodes, rng=np.random.default_rng(seed)
    )
    readings = make_readings(num_nodes, rng=np.random.default_rng(seed + 1))
    protocol = IcpdaProtocol(deployment, IcpdaConfig(), seed=seed)
    protocol.setup()
    result = protocol.run_round(readings)
    return result, protocol, readings


class TestPartitionInvariant:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_no_node_participates_in_two_clusters(self, seed):
        _, protocol, _ = run_once(seed)
        seen = {}
        for head, state in protocol.last_exchange.states.items():
            if state.aborted_reason == "membership_conflict":
                continue
            for member in state.participants:
                assert member not in seen, (
                    f"node {member} in clusters {seen[member]} and {head}"
                )
                seen[member] = head

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_accepted_value_is_sane(self, seed):
        """The original bug produced astronomically wrong accepted
        values; any accepted aggregate must stay within the readings'
        plausible envelope."""
        result, _, readings = run_once(seed)
        if result.verdict.accepted:
            assert 0.0 < result.value <= sum(readings.values()) * 1.01
            assert 0.5 < result.accuracy <= 1.01

    def test_original_trigger_seed_clean(self):
        """Seed 1 at N=200 with the metering workload reproduced the
        corruption before the fix; it must aggregate exactly now."""
        result, protocol, readings = run_once(1)
        aggregate = protocol.aggregate
        for head, state in protocol.last_exchange.states.items():
            if not state.completed:
                continue
            expected = tuple(
                sum(
                    aggregate.components(readings[m])[k]
                    for m in state.participants
                    if m in readings
                )
                for k in range(aggregate.arity)
            )
            assert tuple(state.cluster_sums) == expected, f"cluster {head}"
