"""Tests for adaptive election and head exclusion."""

import pytest

from repro.aggregation.tree import build_aggregation_tree
from repro.core.clustering import ADAPTIVE_TARGET_K, ClusterFormation
from repro.core.config import IcpdaConfig
from repro.errors import ConfigError
from repro.net.stack import NetworkStack
from repro.sim.kernel import Simulator


def form(deployment, config, seed=21, round_id=0):
    sim = Simulator(seed=seed)
    stack = NetworkStack(sim, deployment)
    tree = build_aggregation_tree(stack)
    formation = ClusterFormation(stack, tree, config, round_id=round_id)
    return formation, stack, tree


class TestAdaptiveElection:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            IcpdaConfig(election_mode="magic")
        IcpdaConfig(election_mode="adaptive")  # valid

    def test_probability_fixed_mode(self, small_deployment):
        formation, _, _ = form(small_deployment, IcpdaConfig(p_c=0.3))
        assert formation._election_probability(5) == 0.3

    def test_probability_adaptive_caps_at_target(self, small_deployment):
        config = IcpdaConfig(election_mode="adaptive")
        formation, stack, _ = form(small_deployment, config)
        for node in range(1, 10):
            p = formation._election_probability(node)
            neighborhood = stack.degree(node) + 1
            assert p == pytest.approx(1.0 / min(ADAPTIVE_TARGET_K, neighborhood))

    def test_adaptive_formation_runs(self, small_deployment):
        config = IcpdaConfig(election_mode="adaptive")
        formation, _, tree = form(small_deployment, config)
        result = formation.run()
        assert result.clusters
        assert len(result.membership) > tree.reached * 0.7


class TestHeadExclusion:
    def test_excluded_node_never_heads(self, small_deployment):
        # Find a head in the unrestricted run, then exclude it.
        baseline, _, _ = form(small_deployment, IcpdaConfig())
        heads = set(baseline.run().clusters) - {0}
        victim = sorted(heads)[0]
        config = IcpdaConfig().with_excluded_heads((victim,))
        formation, _, _ = form(small_deployment, config)
        result = formation.run()
        assert victim not in result.clusters

    def test_excluded_node_can_still_join(self, small_deployment):
        baseline, _, _ = form(small_deployment, IcpdaConfig())
        heads = set(baseline.run().clusters) - {0}
        victim = sorted(heads)[0]
        config = IcpdaConfig().with_excluded_heads((victim,))
        formation, _, _ = form(small_deployment, config)
        result = formation.run()
        # Usually the victim joins another cluster as a plain member.
        if victim in result.membership:
            assert result.membership[victim] != victim

    def test_exclusions_merge(self):
        config = IcpdaConfig(excluded_heads=(3,)).with_excluded_heads((5, 3))
        assert config.excluded_heads == (3, 5)

    def test_base_station_cannot_be_meaningfully_excluded(
        self, small_deployment
    ):
        """Excluding node 0 must not break the protocol: the BS always
        roots the aggregation."""
        config = IcpdaConfig().with_excluded_heads((0,))
        formation, _, _ = form(small_deployment, config)
        result = formation.run()
        assert 0 in result.clusters  # BS stays a head regardless
