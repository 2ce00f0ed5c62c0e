"""Tests for eavesdropping and collusion analyses."""

import numpy as np
import pytest

from repro.attacks.collusion import CollusionAnalysis
from repro.attacks.eavesdrop import EavesdropAnalysis
from repro.core.intracluster import (
    ClusterExchangeState,
    ExchangeResult,
    ShareTransmission,
)
from repro.crypto.adversary_keys import LinkBreakModel
from repro.metrics.privacy import DisclosureStats


def synthetic_exchange(members=(1, 2, 3), head=1):
    """A hand-built exchange: full share matrix among ``members``."""
    result = ExchangeResult()
    result.states[head] = ClusterExchangeState(
        head=head,
        participants=list(members),
        contributors=len(members),
        completed=True,
        cluster_sums=(100,),
    )
    for a in members:
        for b in members:
            if a != b:
                result.share_log.append(
                    ShareTransmission(origin=a, recipient=b, links=((a, b),))
                )
    return result


class TestEavesdropAnalysis:
    def test_no_broken_links_no_disclosure(self):
        exchange = synthetic_exchange()
        model = LinkBreakModel(0.0)
        stats, verdicts = EavesdropAnalysis(exchange, model).run()
        assert stats.disclosed == 0
        assert all(not v.disclosed for v in verdicts.values())

    def test_all_links_broken_full_disclosure(self):
        exchange = synthetic_exchange()
        model = LinkBreakModel(1.0)
        stats, _ = EavesdropAnalysis(exchange, model).run()
        assert stats.disclosed == stats.exposed == 3

    def test_one_counterpart_link_alone_insufficient(self):
        """Breaking only the (1, 2) link exposes node 1's exchange with
        node 2 but not with node 3 — no disclosure."""
        exchange = synthetic_exchange()
        model = LinkBreakModel(0.0, always_broken={(1, 2)})
        analysis = EavesdropAnalysis(exchange, model)
        verdict = analysis.node_disclosure(1)
        assert verdict.out_shares_read == 1
        assert verdict.in_shares_read == 1  # link keys cover both ways
        assert not verdict.disclosed

    def test_all_counterpart_links_broken_discloses(self):
        exchange = synthetic_exchange()
        model = LinkBreakModel(0.0, always_broken={(1, 2), (1, 3)})
        assert EavesdropAnalysis(exchange, model).node_disclosure(1).disclosed

    def test_relayed_share_readable_via_either_hop(self):
        result = ExchangeResult()
        result.share_log.append(
            ShareTransmission(origin=1, recipient=3, links=((1, 2), (2, 3)))
        )
        analysis_a = EavesdropAnalysis(
            result, LinkBreakModel(0.0, always_broken={(1, 2)})
        )
        analysis_b = EavesdropAnalysis(
            result, LinkBreakModel(0.0, always_broken={(2, 3)})
        )
        assert analysis_a.share_readable(result.share_log[0])
        assert analysis_b.share_readable(result.share_log[0])

    def test_colluder_knowledge_counts_as_readable(self):
        exchange = synthetic_exchange()
        analysis = EavesdropAnalysis(
            exchange, LinkBreakModel(0.0), colluders={2, 3}
        )
        # Everything node 1 sends goes to a colluder; everything it
        # receives comes from one: structural disclosure.
        assert analysis.node_disclosure(1).disclosed
        assert analysis.participants() == [1]

    def test_monte_carlo_rate_tracks_analytic(self):
        """Pooled Monte-Carlo disclosure over a 3-cluster at p_x=0.5
        should be near p_x^(m-1) = 0.25 (link keys cover both
        directions of each counterpart exchange)."""
        exchange = synthetic_exchange()
        draws = [
            EavesdropAnalysis(
                exchange, LinkBreakModel(0.5, rng=np.random.default_rng(s))
            ).run()[0]
            for s in range(2000)
        ]
        stats = DisclosureStats.pooled(draws)
        assert stats.probability == pytest.approx(0.25, abs=0.03)


class TestCollusionAnalysis:
    def test_m_minus_one_colluders_disclose_victim(self):
        exchange = synthetic_exchange(members=(1, 2, 3))
        analysis = CollusionAnalysis(exchange, colluders={2, 3})
        assert analysis.victims() == {1}

    def test_fewer_colluders_disclose_nothing(self):
        exchange = synthetic_exchange(members=(1, 2, 3))
        analysis = CollusionAnalysis(exchange, colluders={2})
        assert analysis.victims() == set()

    def test_no_colluders_no_victims(self):
        exchange = synthetic_exchange()
        analysis = CollusionAnalysis(exchange, colluders=set())
        assert analysis.victims() == set()

    def test_incomplete_clusters_ignored(self):
        exchange = synthetic_exchange()
        exchange.states[1].completed = False
        analysis = CollusionAnalysis(exchange, colluders={2, 3})
        assert analysis.victims() == set()

    def test_knowledge_map(self):
        exchange = synthetic_exchange()
        analysis = CollusionAnalysis(exchange, colluders={2})
        knowledge = {
            v.head: set(v.colluders) for v in analysis.cluster_verdicts() if v.colluders
        }
        assert knowledge == {1: {2}}
