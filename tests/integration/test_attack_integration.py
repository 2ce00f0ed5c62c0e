"""Integration tests: attacks against the full protocol stack."""

import dataclasses

import numpy as np
import pytest

from repro.attacks.eavesdrop import EavesdropAnalysis
from repro.attacks.pollution import TamperStrategy
from repro.attacks.scenario import AttackScenario
from repro.core.config import IcpdaConfig
from repro.core.localization import localize_polluter
from repro.core.protocol import IcpdaProtocol
from repro.core.results import Verdict
from repro.crypto.adversary_keys import LinkBreakModel
from repro.topology.deploy import uniform_deployment


@pytest.fixture(scope="module")
def scenario():
    deployment = uniform_deployment(
        110, field_size=260.0, rng=np.random.default_rng(31)
    )
    return AttackScenario(deployment, IcpdaConfig(), seed=31)


class TestPollutionEndToEnd:
    def test_value_tamper_detected_and_attributed(self, scenario):
        candidates = scenario.candidate_attackers()
        attacker = candidates[0]
        result, attack = scenario.run_attacked(
            {attacker}, TamperStrategy.NAIVE_TOTAL
        )
        assert attack.acted()
        assert result.verdict is Verdict.REJECTED_ALARM
        assert attacker in result.suspect_counts

    def test_clean_round_on_same_network_accepted(self, scenario):
        result = scenario.run_clean()
        assert result.verdict is Verdict.ACCEPTED

    def test_relay_drop_loses_data(self, scenario):
        relays = scenario.candidate_attackers(role="relay")
        if not relays:
            pytest.skip("no relay candidates on this topology")
        result, attack = scenario.run_attacked(
            {relays[0]}, TamperStrategy.DROP
        )
        clean = scenario.run_clean()
        if attack.acted():
            assert result.contributors <= clean.contributors

    def test_tampered_value_never_accepted_silently(self, scenario):
        """If the round is accepted, the value must be untampered (close
        to the clean run's value); if tampered sneaks in the verdict must
        be a rejection."""
        candidates = scenario.candidate_attackers()
        clean = scenario.run_clean()
        result, attack = scenario.run_attacked(
            {candidates[1 % len(candidates)]},
            TamperStrategy.NAIVE_TOTAL,
            magnitude=10_000_000,
        )
        if attack.acted() and result.verdict.accepted:
            assert result.value == pytest.approx(clean.value, rel=0.2)


class TestLocalizationEndToEnd:
    def test_binary_search_isolates_attacking_cluster(self, scenario):
        candidates = scenario.candidate_attackers()
        attacker = candidates[len(candidates) // 2]

        def probe(subset):
            restricted = dataclasses.replace(
                scenario, config=scenario.config.with_restriction(subset)
            )
            result, _ = restricted.run_attacked(
                {attacker}, TamperStrategy.NAIVE_TOTAL
            )
            return result.detected_pollution

        outcome = localize_polluter(probe, candidates)
        assert outcome.converged
        assert outcome.suspects == (attacker,)


class TestEavesdropEndToEnd:
    def test_no_disclosure_with_unbroken_links(self, scenario):
        protocol = IcpdaProtocol(
            scenario.deployment, scenario.config, seed=scenario.seed
        )
        protocol.setup()
        protocol.run_round(scenario.readings)
        analysis = EavesdropAnalysis(
            protocol.last_exchange, LinkBreakModel(0.0)
        )
        stats, _ = analysis.run()
        assert stats.disclosed == 0
        assert stats.exposed > 0

    def test_total_break_discloses_everyone(self, scenario):
        protocol = IcpdaProtocol(
            scenario.deployment, scenario.config, seed=scenario.seed
        )
        protocol.setup()
        protocol.run_round(scenario.readings)
        analysis = EavesdropAnalysis(
            protocol.last_exchange, LinkBreakModel(1.0)
        )
        stats, _ = analysis.run()
        assert stats.probability == 1.0

    def test_moderate_px_low_disclosure(self, scenario):
        protocol = IcpdaProtocol(
            scenario.deployment, scenario.config, seed=scenario.seed
        )
        protocol.setup()
        protocol.run_round(scenario.readings)
        rng = np.random.default_rng(99)
        analysis = EavesdropAnalysis(
            protocol.last_exchange, LinkBreakModel(0.05, rng=rng)
        )
        stats, _ = analysis.run()
        # k_min=3 clusters: analytic ~p_x^2 = 2.5e-3 (plus relay hops).
        assert stats.probability < 0.05
