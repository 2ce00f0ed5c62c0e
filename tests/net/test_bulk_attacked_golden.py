"""Seeded goldens for attacked batched rounds on the bulk fluid transport.

The scalar == batched equality tests run on the lossless loopback fake
only, and :class:`tests.core.test_report_batched.TestBatchedDeterminism`
only checks that a run matches itself. This module pins what an attacked
``engine="batched"`` round on ``fluid-bulk`` produces, once per
:class:`~repro.attacks.pollution.TamperStrategy`: the verdict, the alarm
set, suspect counts, raw totals, per-kind transmit totals, the
attacker's own counters, and a sha256 over the same fingerprint
``tests/net/test_bulk_determinism.py`` hashes (round result, per-phase
bytes, per-node counters, channel statistics, energy, kernel events).

Attackers are picked the way ``run_detection_trials`` places them:
among the nodes that held the strategy's role (head or relay) in a dry
run of the same deployment, every third candidate, at most three.
Every alarm and report walk of the batched Phase IV (witness checks,
two-path alarm routing with suppression, drops, forward tampering)
feeds these numbers, so a refactor of that phase must leave them
unchanged.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.attacks.pollution import PollutionAttack, TamperStrategy
from repro.attacks.scenario import AttackScenario
from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.topology.deploy import uniform_deployment
from tests.counter_reads import by_kind
from tests.net.test_bulk_determinism import _fingerprint

NUM_NODES = 300

#: strategy -> (seed, expected round). Alarms are
#: ``(witness, suspect, reason, cluster)``; ``by_kind`` is
#: ``(kind, messages, bytes)``; ``attack`` is (tampers, drops, alarms
#: suppressed).
GOLDEN = {
    TamperStrategy.NAIVE_TOTAL: (
        1,
        {"attackers": [1, 106, 198],
         "verdict": "rejected_alarm",
         "alarms": [(16, 106, "total_arithmetic", 106),
                    (23, 106, "total_arithmetic", 106),
                    (29, 198, "total_arithmetic", 198),
                    (31, 106, "total_arithmetic", 106),
                    (60, 106, "total_arithmetic", 106),
                    (72, 106, "total_arithmetic", 106),
                    (85, 198, "total_arithmetic", 198), (105, 1, "total_arithmetic", 1),
                    (133, 1, "total_arithmetic", 1), (225, 1, "total_arithmetic", 1)],
         "suspect_counts": [(1, 3), (106, 5), (198, 2)],
         "raw_totals": [575759],
         "by_kind": [("share", 1130, 45200), ("share_ack", 1394, 33456),
                     ("fvalue", 333, 11988), ("share_relay", 264, 10560),
                     ("fset", 114, 8904), ("report", 197, 7812), ("hello", 300, 6900),
                     ("alarm", 77, 6197), ("join", 286, 5720),
                     ("member_list", 132, 5092), ("census", 124, 4621),
                     ("fvalue_ack", 219, 4380), ("report_ack", 197, 3940),
                     ("census_ack", 124, 2480), ("head_announce", 116, 2320),
                     ("dissolve", 50, 1000), ("join_reject", 33, 660)],
         "attack": (3, 0, 2),
         "sha256": "90ea80601f74eb943c50bcd28ab614059e152f191afa40bdc34f3c9b3adbfe13"},
    ),
    TamperStrategy.CONSISTENT_OWN: (
        2,
        {"attackers": [1, 110, 208],
         "verdict": "rejected_alarm",
         "alarms": [(6, 110, "own_sum_mismatch", 110),
                    (7, 110, "own_sum_mismatch", 110),
                    (13, 110, "own_sum_mismatch", 110),
                    (23, 208, "own_sum_mismatch", 208),
                    (56, 110, "own_sum_mismatch", 110),
                    (69, 208, "own_sum_mismatch", 208),
                    (96, 208, "own_sum_mismatch", 208), (131, 1, "own_sum_mismatch", 1),
                    (158, 1, "own_sum_mismatch", 1),
                    (232, 208, "own_sum_mismatch", 208),
                    (233, 1, "own_sum_mismatch", 1), (256, 1, "own_sum_mismatch", 1),
                    (261, 1, "own_sum_mismatch", 1)],
         "suspect_counts": [(1, 5), (110, 4), (208, 4)],
         "raw_totals": [595111],
         "by_kind": [("share", 1092, 43680), ("share_ack", 1360, 32640),
                     ("fvalue", 350, 12600), ("share_relay", 268, 10720),
                     ("fset", 126, 9408), ("report", 187, 7956), ("alarm", 87, 6960),
                     ("hello", 300, 6900), ("member_list", 138, 5266),
                     ("join", 255, 5100), ("census", 121, 4627),
                     ("fvalue_ack", 224, 4480), ("report_ack", 187, 3740),
                     ("census_ack", 121, 2420), ("head_announce", 99, 1980),
                     ("dissolve", 30, 600), ("join_reject", 12, 240)],
         "attack": (3, 0, 1),
         "sha256": "c7aea515b96503e4571ad24d829da1c48dd971b376fa01259cf4f92d2beedddb"},
    ),
    TamperStrategy.CONSISTENT_CHILD: (
        4,
        {"attackers": [1, 96, 192],
         "verdict": "rejected_alarm",
         "alarms": [(90, 1, "own_sum_mismatch", 1), (156, 1, "own_sum_mismatch", 1),
                    (189, 96, "child_tampered", 192), (217, 96, "child_tampered", 192),
                    (219, 192, "own_sum_mismatch", 192),
                    (231, 96, "child_tampered", 192),
                    (236, 192, "own_sum_mismatch", 192),
                    (294, 1, "own_sum_mismatch", 1)],
         "suspect_counts": [(1, 3), (96, 3), (192, 2)],
         "raw_totals": [645550],
         "by_kind": [("share", 1124, 44960), ("share_ack", 1344, 32256),
                     ("fvalue", 357, 12852), ("fset", 128, 9592),
                     ("share_relay", 220, 8800), ("alarm", 98, 7994),
                     ("report", 180, 7976), ("hello", 300, 6900), ("join", 269, 5380),
                     ("member_list", 134, 5198), ("census", 113, 4643),
                     ("fvalue_ack", 229, 4580), ("report_ack", 180, 3600),
                     ("census_ack", 113, 2260), ("head_announce", 88, 1760),
                     ("join_reject", 25, 500), ("dissolve", 21, 420)],
         "attack": (3, 0, 14),
         "sha256": "4a689c677ac262495668c5c8952e1d0c3b05579a25a0acf14485e2fecb15c5af"},
    ),
    TamperStrategy.FORWARD_TAMPER: (
        3,
        {"attackers": [6, 85, 206],
         "verdict": "rejected_alarm",
         "alarms": [(5, 6, "relay_tampered", 69), (5, 6, "relay_tampered", 163),
                    (5, 6, "relay_tampered", 182), (50, 6, "relay_tampered", 69),
                    (50, 6, "relay_tampered", 163), (50, 6, "relay_tampered", 182),
                    (111, 6, "relay_tampered", 88), (114, 6, "relay_tampered", 69),
                    (114, 6, "relay_tampered", 88), (114, 6, "relay_tampered", 105),
                    (114, 6, "relay_tampered", 163), (114, 6, "relay_tampered", 182),
                    (114, 6, "relay_tampered", 189), (114, 6, "relay_tampered", 275),
                    (124, 6, "relay_tampered", 65), (128, 206, "relay_tampered", 107),
                    (144, 6, "relay_tampered", 69), (144, 6, "relay_tampered", 163),
                    (144, 6, "relay_tampered", 182), (163, 6, "relay_tampered", 65),
                    (163, 6, "relay_tampered", 69), (163, 6, "relay_tampered", 88),
                    (181, 6, "relay_tampered", 69), (181, 6, "relay_tampered", 182),
                    (207, 6, "relay_tampered", 163), (208, 6, "relay_tampered", 163),
                    (215, 206, "relay_tampered", 107), (245, 6, "relay_tampered", 163),
                    (261, 206, "relay_tampered", 107), (288, 6, "relay_tampered", 88),
                    (288, 6, "relay_tampered", 163),
                    (299, 206, "relay_tampered", 107)],
         "suspect_counts": [(6, 12), (206, 4)],
         "raw_totals": [687571],
         "by_kind": [("share", 1244, 49760), ("share_ack", 1542, 37008),
                     ("alarm", 345, 27145), ("fvalue", 342, 12312),
                     ("share_relay", 298, 11920), ("fset", 112, 9104),
                     ("hello", 300, 6900), ("report", 151, 6524), ("join", 294, 5880),
                     ("member_list", 122, 4906), ("fvalue_ack", 230, 4600),
                     ("census", 120, 4224), ("report_ack", 151, 3020),
                     ("census_ack", 120, 2400), ("head_announce", 97, 1940),
                     ("join_reject", 38, 760), ("dissolve", 36, 720)],
         "attack": (11, 0, 74),
         "sha256": "acee36c444c3cae000d5c1654474f00cb55d123be598a3188264a8f355b8c44c"},
    ),
    TamperStrategy.DROP: (
        6,
        {"attackers": [4, 92, 189],
         "verdict": "rejected_alarm",
         "alarms": [(10, 4, "dropped", 244), (28, 92, "dropped", 41),
                    (28, 92, "dropped", 276), (53, 189, "dropped", 91),
                    (89, 92, "dropped", 41), (89, 92, "dropped", 276),
                    (94, 189, "dropped", 270), (125, 92, "dropped", 41),
                    (125, 92, "dropped", 276), (139, 92, "dropped", 41),
                    (148, 189, "dropped", 124), (148, 189, "dropped", 270),
                    (156, 92, "dropped", 41), (164, 189, "dropped", 124),
                    (164, 189, "dropped", 270), (184, 4, "dropped", 244),
                    (198, 189, "dropped", 124), (198, 189, "dropped", 270),
                    (203, 4, "dropped", 244), (220, 4, "dropped", 244),
                    (220, 92, "dropped", 41), (232, 92, "dropped", 276),
                    (250, 189, "dropped", 64), (250, 189, "dropped", 124),
                    (250, 189, "dropped", 270), (259, 189, "dropped", 124),
                    (259, 189, "dropped", 270), (283, 4, "dropped", 244)],
         "suspect_counts": [(4, 5), (92, 7), (189, 7)],
         "raw_totals": [457181],
         "by_kind": [("share", 1118, 44720), ("share_ack", 1384, 33216),
                     ("alarm", 251, 20731), ("fvalue", 356, 12816),
                     ("share_relay", 266, 10640), ("fset", 128, 9568),
                     ("hello", 300, 6900), ("report", 145, 6448),
                     ("member_list", 136, 5232), ("join", 253, 5060),
                     ("census", 124, 4684), ("fvalue_ack", 228, 4560),
                     ("report_ack", 145, 2900), ("census_ack", 124, 2480),
                     ("head_announce", 99, 1980), ("dissolve", 31, 620),
                     ("join_reject", 11, 220)],
         "attack": (0, 11, 40),
         "sha256": "24c1471b15831c85bc1e74496b432dfb01dbd3d7082b9b01a334c57c3461514c"},
    ),
}


def _run(strategy: TamperStrategy, seed: int) -> dict:
    role = (
        "relay"
        if strategy in (TamperStrategy.FORWARD_TAMPER, TamperStrategy.DROP)
        else "head"
    )
    config = IcpdaConfig(engine="batched")
    deployment = uniform_deployment(NUM_NODES, rng=np.random.default_rng(seed))
    scenario = AttackScenario(deployment, config, seed=seed, transport="fluid-bulk")
    candidates = scenario.candidate_attackers(role=role)
    attackers = set(candidates[:: max(1, len(candidates) // 3)][:3])
    attack = PollutionAttack(attackers, strategy)
    protocol = IcpdaProtocol(
        deployment, config, seed=seed, attack_plan=attack, transport="fluid-bulk"
    )
    protocol.setup()
    result = protocol.run_round(scenario.readings)
    attack_counts = (
        attack.tampers_performed,
        attack.drops_performed,
        attack.alarms_suppressed,
    )
    fingerprint = (_fingerprint(protocol, result), attack_counts)
    return {
        "attackers": sorted(attackers),
        "verdict": result.verdict.value,
        "alarms": sorted(
            (a.witness, a.suspect, a.reason.value, a.cluster) for a in result.alarms
        ),
        "suspect_counts": sorted(result.suspect_counts.items()),
        "raw_totals": list(result.raw_totals),
        "by_kind": [
            (b.kind, b.messages, b.bytes) for b in by_kind(protocol.stack.counters)
        ],
        "attack": attack_counts,
        "sha256": hashlib.sha256(repr(fingerprint).encode()).hexdigest(),
    }


@pytest.mark.parametrize("strategy", list(TamperStrategy), ids=lambda s: s.value)
def test_attacked_bulk_round_matches_golden(strategy: TamperStrategy) -> None:
    seed, golden = GOLDEN[strategy]
    run = _run(strategy, seed)
    assert run["verdict"].startswith("rejected")
    for key in golden:
        assert run[key] == golden[key], key
