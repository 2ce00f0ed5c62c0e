"""Unit tests for protocol configuration and result records."""

import pytest

from repro.aggregation.functions import SumAggregate
from repro.aggregation.tree import TreeBuildResult
from repro.core.clustering import ClusteringResult
from repro.core.config import IcpdaConfig
from repro.core.integrity import ALARM_KIND, ReportAndVerdictPhase
from repro.core.intracluster import ExchangeResult
from repro.core.results import AlarmReason, AlarmRecord, RoundResult, Verdict
from repro.errors import ConfigError
from repro.net.packet import Packet
from tests.net.loopback import LoopbackTransport, line_topology


class TestConfigValidation:
    def test_defaults_valid(self):
        IcpdaConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p_c": 0.0},
            {"p_c": 1.5},
            {"k_min": 1},
            {"k_min": 5, "k_max": 4},
            {"count_threshold": -1},
            {"witness_fraction": 0.0},
            {"witness_fraction": 1.5},
            {"fixed_point_scale": 0},
            {"integrity_mode": "partial"},
            {"election_mode": "magic"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            IcpdaConfig(**kwargs)

    def test_restriction_roundtrip(self):
        config = IcpdaConfig().with_restriction((5, 3, 9))
        assert config.restrict_to_clusters == (3, 5, 9)

    def test_config_is_frozen(self):
        config = IcpdaConfig()
        with pytest.raises(Exception):
            config.p_c = 0.5


class TestVerdict:
    def test_only_accepted_is_accepted(self):
        assert Verdict.ACCEPTED.accepted
        assert not Verdict.REJECTED_ALARM.accepted
        assert not Verdict.REJECTED_MISMATCH.accepted
        assert not Verdict.INSUFFICIENT.accepted



class TestRoundResult:
    def make(self, verdict, suspects=None):
        return RoundResult(
            verdict=verdict,
            value=1.0,
            raw_totals=(100,),
            contributors=10,
            census_participants=10,
            true_value=1.0,
            accuracy=1.0,
            suspect_counts=suspects or {},
        )

    def test_detected_pollution(self):
        assert self.make(Verdict.REJECTED_ALARM).detected_pollution
        assert self.make(Verdict.REJECTED_MISMATCH).detected_pollution
        assert not self.make(Verdict.ACCEPTED).detected_pollution
        assert not self.make(Verdict.INSUFFICIENT).detected_pollution

    def test_top_suspect(self):
        result = self.make(
            Verdict.REJECTED_ALARM, suspects={5: 3, 9: 1, 2: 3}
        )
        assert result.top_suspect() == 2  # ties break toward smaller id

    def test_top_suspect_none_without_alarms(self):
        assert self.make(Verdict.ACCEPTED).top_suspect() is None


def _alarms_kept_at_base_station(alarms):
    """The records the base station keeps after ``alarms`` reach it."""
    stack = LoopbackTransport(line_topology(3))
    tree = TreeBuildResult(root=0, parents={0: None, 1: 0, 2: 1}, depths={0: 0, 1: 1, 2: 2})
    phase = ReportAndVerdictPhase(
        stack, tree, ClusteringResult(), ExchangeResult(), IcpdaConfig(), SumAggregate()
    )
    for alarm in alarms:
        payload = {
            "witness": alarm.witness,
            "suspect": alarm.suspect,
            "reason": alarm.reason.value,
            "detail": alarm.detail,
            "cluster": alarm.cluster,
        }
        phase._on_alarm(0, Packet(src=1, dst=0, kind=ALARM_KIND, payload=payload))
    return list(phase._alarms.values())


class TestAlarmRecord:
    def test_dedup_key_distinguishes_reason_and_cluster(self):
        a = AlarmRecord(1, 2, AlarmReason.DROPPED, cluster=7)
        b = AlarmRecord(1, 2, AlarmReason.RELAY_TAMPERED, cluster=7)
        c = AlarmRecord(1, 2, AlarmReason.DROPPED, cluster=8)
        assert _alarms_kept_at_base_station([a, b, c]) == [a, b, c]

    def test_dedup_key_ignores_detail(self):
        a = AlarmRecord(1, 2, AlarmReason.DROPPED, detail="x", cluster=7)
        b = AlarmRecord(1, 2, AlarmReason.DROPPED, detail="y", cluster=7)
        assert _alarms_kept_at_base_station([a, b]) == [a]
