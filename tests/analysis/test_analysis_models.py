"""Unit tests for the closed-form analysis models."""

import pytest

from repro.analysis.coverage import (
    coverage_lower_bound,
    prob_hears_head,
)
from repro.analysis.detection import (
    prob_detect_head_tamper,
    prob_detect_multiple,
)
from repro.analysis.overhead import (
    icpda_bytes_per_node,
    overhead_ratio,
    tag_bytes_per_node,
)
from repro.analysis.privacy import (
    p_disclose_collusion,
    p_disclose_link,
    recommended_cluster_size,
)
from repro.errors import ReproError


class TestCoverage:
    def test_prob_hears_head_monotone_in_degree(self):
        probs = [prob_hears_head(d, 0.25) for d in range(0, 30, 5)]
        assert probs == sorted(probs)
        assert probs[0] == 0.0

    def test_prob_hears_head_exact(self):
        assert prob_hears_head(2, 0.5) == pytest.approx(0.75)

    def test_coverage_bound_is_mean_of_per_node(self):
        assert coverage_lower_bound([2, 2], 0.5) == pytest.approx(0.75)

    def test_validation(self):
        with pytest.raises(ReproError):
            prob_hears_head(-1, 0.5)
        with pytest.raises(ReproError):
            coverage_lower_bound([], 0.5)


class TestOverhead:
    def test_tag_model(self):
        assert tag_bytes_per_node() == 20 + 24  # hello + partial

    def test_icpda_bytes_grow_with_m(self):
        values = [icpda_bytes_per_node(m) for m in (2, 3, 4, 5)]
        assert values == sorted(values)

    def test_ratio_in_paper_ballpark(self):
        # The paper family's headline: ~(2m+1)/2-ish x TAG.
        assert 2.5 < overhead_ratio(3) < 8.0
        assert overhead_ratio(4) > overhead_ratio(3)

    def test_validation(self):
        with pytest.raises(ReproError):
            icpda_bytes_per_node(1)
        with pytest.raises(ReproError):
            overhead_ratio(1)


class TestPrivacy:
    def test_p_disclose_link_exact(self):
        assert p_disclose_link(0.1, 3) == pytest.approx(1e-2)
        assert p_disclose_link(0.1, 2) == pytest.approx(1e-1)
        assert p_disclose_link(0.1, 4) == pytest.approx(1e-3)

    def test_decreasing_in_m_increasing_in_px(self):
        assert p_disclose_link(0.1, 4) < p_disclose_link(0.1, 3)
        assert p_disclose_link(0.2, 3) > p_disclose_link(0.1, 3)

    def test_hops_increase_exposure(self):
        assert p_disclose_link(0.1, 3, hops=2) > p_disclose_link(0.1, 3)

    def test_collusion(self):
        assert p_disclose_collusion(0.1, 3) == pytest.approx(0.01)
        assert p_disclose_collusion(0.0, 3) == 0.0
        assert p_disclose_collusion(1.0, 3) == 1.0

    def test_recommended_cluster_size(self):
        # p_x=0.1, target 1e-3 -> m=4 gives p_x^3 = 1e-3.
        assert recommended_cluster_size(0.1, 1e-3) == 4
        with pytest.raises(ReproError):
            recommended_cluster_size(1.0, 1e-3)


class TestDetection:
    def test_more_witnesses_more_detection(self):
        assert prob_detect_head_tamper(5) > prob_detect_head_tamper(3)

    def test_full_witnesses_near_one(self):
        assert prob_detect_head_tamper(4, 1.0) > 0.98

    def test_zero_fraction_zero_detection(self):
        # witness_fraction 0 is rejected by config but legal in the model
        assert prob_detect_head_tamper(4, 0.0) == 0.0

    def test_multiple_attackers_increase_detection(self):
        single = prob_detect_multiple(1, 3, 1.0)
        triple = prob_detect_multiple(3, 3, 1.0)
        assert triple > single
