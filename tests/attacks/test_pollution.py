"""Unit tests for the pollution attack plans."""

import numpy as np
import pytest

from repro.attacks.pollution import PollutionAttack, TamperStrategy
from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.core.results import Verdict
from repro.errors import ReproError
from repro.experiments.common import make_readings
from repro.topology.deploy import uniform_deployment


def report_payload():
    return {
        "cluster": 5,
        "own": [100],
        "children": [[3, [50], 4], [9, [25], 3]],
        "total": [175],
        "contributors": 10,
        "ids": [5, 3, 9],
    }


class TestReportMutation:
    def test_naive_total_changes_only_total(self):
        attack = PollutionAttack({5}, TamperStrategy.NAIVE_TOTAL, magnitude=999)
        mutated = attack.mutate_report(5, report_payload())
        assert mutated["total"] == [175 + 999]
        assert mutated["own"] == [100]
        assert attack.tampers_performed == 1

    def test_consistent_own_keeps_arithmetic(self):
        attack = PollutionAttack({5}, TamperStrategy.CONSISTENT_OWN, magnitude=999)
        mutated = attack.mutate_report(5, report_payload())
        child_sum = sum(c[1][0] for c in mutated["children"])
        assert mutated["total"][0] == mutated["own"][0] + child_sum

    def test_consistent_child_keeps_arithmetic(self):
        attack = PollutionAttack({5}, TamperStrategy.CONSISTENT_CHILD, magnitude=999)
        mutated = attack.mutate_report(5, report_payload())
        child_sum = sum(c[1][0] for c in mutated["children"])
        assert mutated["total"][0] == mutated["own"][0] + child_sum
        assert mutated["children"][0][1] == [50 + 999]

    def test_consistent_child_without_children_falls_back(self):
        attack = PollutionAttack({5}, TamperStrategy.CONSISTENT_CHILD, magnitude=9)
        payload = report_payload()
        payload["children"] = []
        payload["total"] = [100]
        mutated = attack.mutate_report(5, payload)
        assert mutated["own"] == [109]
        assert mutated["total"] == [109]

    def test_non_attacker_untouched(self):
        attack = PollutionAttack({5}, TamperStrategy.NAIVE_TOTAL)
        payload = report_payload()
        assert attack.mutate_report(6, payload) is payload
        assert attack.tampers_performed == 0

    def test_original_payload_not_mutated_in_place(self):
        attack = PollutionAttack({5}, TamperStrategy.NAIVE_TOTAL)
        payload = report_payload()
        attack.mutate_report(5, payload)
        assert payload["total"] == [175]


class TestPrivacyOnlyRounds:
    """Without integrity (``integrity_mode="none"``) a head report has
    no ``own``/``children`` itemization; the consistent strategies must
    then tamper with the total alone instead of crashing the round."""

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    @pytest.mark.parametrize(
        "strategy", [TamperStrategy.CONSISTENT_OWN, TamperStrategy.CONSISTENT_CHILD]
    )
    def test_consistent_tamper_bumps_total_only(self, strategy, engine):
        deployment = uniform_deployment(150, rng=np.random.default_rng(1))
        readings = make_readings(150, rng=np.random.default_rng(2))
        scout = IcpdaProtocol(deployment, IcpdaConfig(engine=engine), seed=1)
        scout.setup()
        scout.run_round(readings)
        heads = [h for h in scout.last_exchange.completed_clusters if h != 0][:3]

        def attacked_value(tamper):
            attack = PollutionAttack(set(heads), tamper)
            protocol = IcpdaProtocol(
                deployment,
                IcpdaConfig(engine=engine, integrity_mode="none"),
                seed=1,
                attack_plan=attack,
            )
            protocol.setup()
            result = protocol.run_round(readings)
            assert result.verdict is Verdict.ACCEPTED
            assert attack.tampers_performed == len(heads)
            return result.value

        assert attacked_value(strategy) == attacked_value(TamperStrategy.NAIVE_TOTAL)

    def test_unitemized_payload_keeps_its_shape(self):
        attack = PollutionAttack({5}, TamperStrategy.CONSISTENT_CHILD, magnitude=9)
        mutated = attack.mutate_report(5, {"cluster": 5, "total": [100]})
        assert mutated == {"cluster": 5, "total": [109]}


class TestForwardAndDrop:
    def test_forward_tamper_only_under_its_strategy(self):
        attack = PollutionAttack({5}, TamperStrategy.NAIVE_TOTAL)
        payload = report_payload()
        assert attack.mutate_forward(5, payload) is payload

        attack = PollutionAttack({5}, TamperStrategy.FORWARD_TAMPER, magnitude=7)
        mutated = attack.mutate_forward(5, report_payload())
        assert mutated["total"] == [182]

    def test_drop_only_under_drop_strategy(self):
        attack = PollutionAttack({5}, TamperStrategy.DROP)
        assert attack.drops_report(5, report_payload())
        assert not attack.drops_report(6, report_payload())
        assert attack.drops_performed == 1

        attack = PollutionAttack({5}, TamperStrategy.NAIVE_TOTAL)
        assert not attack.drops_report(5, report_payload())


class TestAlarmSuppression:
    def test_suppression_flag(self):
        attack = PollutionAttack({5}, suppress_alarms=True)
        assert attack.suppresses_alarm(5)
        assert not attack.suppresses_alarm(6)
        assert attack.alarms_suppressed == 1

    def test_suppression_disabled(self):
        attack = PollutionAttack({5}, suppress_alarms=False)
        assert not attack.suppresses_alarm(5)


class TestValidation:
    def test_empty_attackers_rejected(self):
        with pytest.raises(ReproError):
            PollutionAttack(set())

    def test_zero_magnitude_rejected(self):
        with pytest.raises(ReproError):
            PollutionAttack({1}, magnitude=0)

