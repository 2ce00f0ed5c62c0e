"""Unit tests for the pollution attack plans."""

import pytest

from repro.attacks.pollution import PollutionAttack, TamperStrategy
from repro.errors import ReproError


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

