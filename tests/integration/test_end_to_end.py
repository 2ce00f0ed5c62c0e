"""End-to-end integration tests: full protocol runs across conditions."""

import numpy as np
import pytest

from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.core.results import Verdict
from repro.experiments.common import make_readings, run_tag_round_on
from repro.topology.deploy import uniform_deployment
from tests.layouts import grid_deployment, hotspot_deployment


def run_round(deployment, seed=0, config=None, readings=None):
    protocol = IcpdaProtocol(
        deployment, config if config is not None else IcpdaConfig(), seed=seed
    )
    protocol.setup()
    if readings is None:
        readings = make_readings(
            deployment.num_nodes, rng=np.random.default_rng(seed)
        )
    return protocol.run_round(readings), protocol, readings


class TestAcrossTopologies:
    def test_uniform_dense(self):
        deployment = uniform_deployment(
            100, field_size=250.0, rng=np.random.default_rng(1)
        )
        result, _, _ = run_round(deployment, seed=1)
        assert result.verdict is Verdict.ACCEPTED
        assert result.accuracy > 0.8

    def test_grid(self):
        deployment = grid_deployment(100, field_size=250.0)
        result, _, _ = run_round(deployment, seed=2)
        assert result.verdict is Verdict.ACCEPTED
        assert result.accuracy > 0.8

    def test_hotspot(self):
        deployment = hotspot_deployment(
            120, field_size=250.0, rng=np.random.default_rng(3)
        )
        result, _, _ = run_round(deployment, seed=3)
        # Hotspot deployments may strand background nodes; the round
        # must still finish with a coherent verdict.
        assert result.verdict in (Verdict.ACCEPTED, Verdict.REJECTED_MISMATCH)
        if result.verdict is Verdict.ACCEPTED:
            assert 0.5 < result.accuracy <= 1.0

    def test_sparse_network_degrades_not_crashes(self):
        deployment = uniform_deployment(
            60, field_size=400.0, rng=np.random.default_rng(4)
        )
        result, _, _ = run_round(deployment, seed=4)
        assert result.participation < 1.0
        assert result.verdict in (
            Verdict.ACCEPTED,
            Verdict.REJECTED_MISMATCH,
            Verdict.INSUFFICIENT,
        )


class TestAccuracyInvariants:
    def test_value_never_exceeds_truth_without_attack(self):
        """Honest rounds can only lose readings, never invent them, so
        the collected SUM of positive readings is at most the truth."""
        deployment = uniform_deployment(
            90, field_size=240.0, rng=np.random.default_rng(5)
        )
        result, _, readings = run_round(deployment, seed=5)
        if result.verdict.accepted:
            assert result.value <= result.true_value + 0.01

    def test_contributors_never_exceed_sensor_count(self):
        deployment = uniform_deployment(
            90, field_size=240.0, rng=np.random.default_rng(6)
        )
        result, _, readings = run_round(deployment, seed=6)
        assert result.contributors <= len(readings)

    def test_accuracy_equals_participation_for_constant_readings(self):
        deployment = uniform_deployment(
            90, field_size=240.0, rng=np.random.default_rng(7)
        )
        readings = {i: 1.0 for i in range(1, 90)}
        result, _, _ = run_round(deployment, seed=7, readings=readings)
        if result.verdict.accepted:
            assert result.accuracy == pytest.approx(result.participation)


class TestAgainstTag:
    def test_icpda_and_tag_agree_on_dense_network(self):
        """Both protocols estimate the same ground truth; their accepted
        answers should be within ~20% of each other."""
        tag_result, _ = run_tag_round_on(150, seed=11)
        deployment = uniform_deployment(150, rng=np.random.default_rng(11))
        result, _, _ = run_round(deployment, seed=11)
        if result.verdict.accepted:
            assert result.value == pytest.approx(tag_result.value, rel=0.25)

    def test_icpda_costs_more_than_tag(self):
        _, tag_stack = run_tag_round_on(120, seed=12)
        deployment = uniform_deployment(120, rng=np.random.default_rng(12))
        _, protocol, _ = run_round(deployment, seed=12)
        assert protocol.total_bytes() > tag_stack.counters.total_bytes


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        deployment = uniform_deployment(
            80, field_size=220.0, rng=np.random.default_rng(13)
        )
        readings = make_readings(80, rng=np.random.default_rng(13))
        results = []
        for _ in range(2):
            result, protocol, _ = run_round(
                deployment, seed=13, readings=readings
            )
            results.append(
                (
                    result.verdict,
                    result.value,
                    result.contributors,
                    result.raw_totals,
                    protocol.total_bytes(),
                )
            )
        assert results[0] == results[1]

    def test_different_seeds_differ(self):
        deployment = uniform_deployment(
            80, field_size=220.0, rng=np.random.default_rng(14)
        )
        readings = make_readings(80, rng=np.random.default_rng(14))
        byte_counts = set()
        for seed in (1, 2, 3):
            _, protocol, _ = run_round(deployment, seed=seed, readings=readings)
            byte_counts.add(protocol.total_bytes())
        assert len(byte_counts) > 1
