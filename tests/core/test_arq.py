"""The stop-and-wait hop ARQ: its timer schedule and its contract with
the five acknowledged hops (census, share, F-value, report, slice).

The schedule tests drive :class:`~repro.core.arq.StopAndWait` alone on
the loopback fake's scheduler. The lost-ack tests run whole phases on a
loopback transport that loses the first ack of every kind, and compare
them with the same phases on a lossless one.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.aggregation.functions import FixedPointCodec, make_aggregate
from repro.aggregation.slicing import SlicingAggregation
from repro.aggregation.tree import build_aggregation_tree
from repro.core.arq import StopAndWait
from repro.core.clustering import ClusterFormation
from repro.core.config import IcpdaConfig
from repro.core.field import DEFAULT_FIELD
from repro.core.integrity import ReportAndVerdictPhase
from repro.core.intracluster import IntraClusterExchange
from repro.crypto.keys import PairwiseKeyScheme
from repro.crypto.linksec import LinkSecurity
from tests.net.loopback import LoopbackTransport, grid_topology, line_topology

TIMEOUT_S = 0.35


def _run(retries: int, base: float, ack_at: float = None):
    """Send instants of one ARQ'd frame (acked at ``ack_at``), and the
    scheduler after it ran dry."""
    fake = LoopbackTransport(line_topology(2))
    sim = fake.sim
    arq = StopAndWait(fake, TIMEOUT_S, retries, base)
    instants = []
    arq.send(0, 1, lambda: instants.append(sim.now), ())
    if ack_at is not None:
        sim.schedule_at(ack_at, arq.ack, args=(0, 1))
    sim.run()
    return instants, sim


class TestSchedule:
    @pytest.mark.parametrize(
        "base, instants",
        [
            (1.0, [0.0, 0.35, 0.875, 1.575]),
            (1.5, [0.0, 0.525, 1.225, 2.1]),
        ],
    )
    def test_send_instants(self, base, instants):
        sent, _ = _run(retries=3, base=base)
        assert sent == pytest.approx(instants)

    def test_stops_on_first_ack(self):
        sent, _ = _run(retries=3, base=1.0, ack_at=0.5)
        assert sent == pytest.approx([0.0, 0.35])

    def test_stops_after_retries(self):
        sent, _ = _run(retries=5, base=1.5)
        assert len(sent) == 6

    def test_zero_retries_sends_once(self):
        sent, sim = _run(retries=0, base=1.0)
        assert sent == [0.0]
        assert sim.now == 0.0  # no timer was ever armed

    def test_no_timer_after_final_attempt(self):
        sent, sim = _run(retries=2, base=1.0)
        assert len(sent) == 3
        assert sim.now == pytest.approx(sent[-1])  # no timer fired later

    def test_take_is_true_once_per_receiver_and_key(self):
        arq = StopAndWait(LoopbackTransport(line_topology(2)), TIMEOUT_S, 3, 1.0)
        assert arq.take(1, 7)
        assert not arq.take(1, 7)
        assert arq.take(2, 7) and arq.take(1, 8)


# -- lost acks, whole phases ----------------------------------------------------

#: ack kind -> the data kind whose retransmission it stops.
ACK_KINDS = {
    "census_ack": "census",
    "share_ack": "share",
    "fvalue_ack": "fvalue",
    "report_ack": "report",
    "slice_ack": "slice",
}


class _Recording(LoopbackTransport):
    """Loopback that logs every frame it puts on the air."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.frames = []

    def _transmit(self, packet) -> None:
        self.frames.append(packet)
        super()._transmit(packet)


class _LoseFirstAck(_Recording):
    """Loses the first frame of every ack kind at its addressee. Other
    neighbors still overhear it, so witnesses watching a report hop see
    the ack the sender missed."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.lost = {}

    def _deliver(self, packet) -> None:
        if packet.kind not in ACK_KINDS or packet.kind in self.lost:
            super()._deliver(packet)
            return
        self.lost[packet.kind] = packet
        for receiver in self._adjacency[packet.src]:
            if receiver == packet.dst:
                continue
            for entry in self._overhear.get(receiver, ()):
                if entry.wants(packet.kind):
                    entry.listener(receiver, packet)


def _hop_key(packet):
    """``(data kind, ARQ sender, ARQ key)`` of a frame its ARQ sender
    transmitted; None for relayed copies and other kinds."""
    kind, payload = packet.kind, packet.payload
    if kind == "census":
        return ("census", packet.src, payload["head"])
    if kind in ("share", "share_relay") and packet.src == payload["origin"]:
        return ("share", packet.src, payload["dst"])
    if kind == "fvalue":
        return ("fvalue", packet.src, payload["cluster"])
    if kind in ("report", "report_abort"):
        return ("report", packet.src, payload["cluster"])
    if kind == "slice":
        return ("slice", packet.src, payload["dst"])
    return None


def _acked_key(ack):
    """The ``_hop_key`` of the frame an ack frame acknowledges."""
    kind, payload = ACK_KINDS[ack.kind], ack.payload
    if ack.kind in ("share_ack", "slice_ack"):
        return (kind, payload["origin"], payload["dst"])
    if ack.kind == "fvalue_ack":
        return (kind, ack.dst, ack.src)
    return (kind, ack.dst, payload["head" if kind == "census" else "cluster"])


def _retransmissions(lossy, lossless):
    sent = Counter(filter(None, map(_hop_key, lossy.frames)))
    baseline = Counter(filter(None, map(_hop_key, lossless.frames)))
    return {
        key: sent[key] - baseline[key]
        for key in sent.keys() | baseline.keys()
        if sent[key] != baseline[key]
    }


def _icpda_round(transport):
    cfg = IcpdaConfig()
    tree = build_aggregation_tree(transport)
    clustering = ClusterFormation(transport, tree, cfg, round_id=0).run()
    readings = {i: 10.0 + (i % 7) for i in transport.node_ids() if i != 0}
    aggregate = make_aggregate("sum", FixedPointCodec(scale=cfg.fixed_point_scale))
    exchange = IntraClusterExchange(
        transport,
        clustering,
        cfg,
        LinkSecurity(PairwiseKeyScheme()),
        aggregate,
        readings,
        DEFAULT_FIELD,
        round_id=0,
    ).run()
    result = ReportAndVerdictPhase(
        transport, tree, clustering, exchange, cfg, aggregate, round_id=0
    ).run(aggregate.true_value(list(readings.values())), len(readings))
    sums = {h: s.cluster_sums for h, s in exchange.states.items() if s.completed}
    return clustering.census_at_bs, sums, result


def _slicing_round(transport):
    tree = build_aggregation_tree(transport)
    readings = {i: 5.0 + (i % 3) for i in transport.node_ids() if i != 0}
    return SlicingAggregation(
        transport,
        tree,
        make_aggregate("sum", FixedPointCodec(scale=100)),
        LinkSecurity(PairwiseKeyScheme()),
        num_slices=3,
    ).run(readings)


class TestLostAcks:
    def test_icpda_hops_retransmit_once_and_take_once(self):
        lossless = _Recording(grid_topology(6))
        lossy = _LoseFirstAck(grid_topology(6))
        census, sums, result = _icpda_round(lossless)
        lossy_census, lossy_sums, lossy_result = _icpda_round(lossy)

        assert set(lossy.lost) == set(ACK_KINDS) - {"slice_ack"}
        assert _retransmissions(lossy, lossless) == {
            _acked_key(ack): 1 for ack in lossy.lost.values()
        }
        assert lossy_census == census
        assert lossy_sums == sums and sums
        assert result.verdict.accepted and lossy_result.verdict.accepted
        assert lossy_result.value == result.value
        assert lossy_result.contributors == result.contributors
        assert len(lossy_result.alarms) == len(result.alarms) == 0

    def test_slice_hop_retransmits_once_and_is_taken_once(self):
        lossless = _Recording(grid_topology(5))
        lossy = _LoseFirstAck(grid_topology(5))
        result = _slicing_round(lossless)
        lossy_result = _slicing_round(lossy)

        assert set(lossy.lost) == {"slice_ack"}
        assert _retransmissions(lossy, lossless) == {
            _acked_key(lossy.lost["slice_ack"]): 1
        }
        assert lossy_result.slices_sent == result.slices_sent
        assert lossy_result.slices_delivered == result.slices_delivered
        assert lossy_result.tag.value == result.tag.value
        assert lossy_result.tag.contributors == result.tag.contributors
