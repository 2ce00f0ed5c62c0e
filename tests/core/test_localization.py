"""Unit tests for attacker localization (pure search logic)."""

import pytest

from repro.core.localization import (
    expected_probe_bound,
    localize_polluter,
)
from repro.errors import ProtocolError


def perfect_probe(attacker):
    """A noiseless oracle: detects iff the attacker is in the subset."""

    def probe(subset):
        return attacker in subset

    return probe


class TestBinarySearch:
    def test_finds_single_attacker(self):
        clusters = list(range(1, 17))
        result = localize_polluter(perfect_probe(7), clusters)
        assert result.converged
        assert result.suspects == (7,)

    def test_probe_count_within_log_bound(self):
        clusters = list(range(1, 33))
        result = localize_polluter(perfect_probe(19), clusters)
        assert result.probes_used <= expected_probe_bound(len(clusters))

    @pytest.mark.parametrize("attacker", [1, 5, 16])
    def test_any_position_found(self, attacker):
        clusters = list(range(1, 17))
        result = localize_polluter(perfect_probe(attacker), clusters)
        assert result.suspects == (attacker,)

    def test_single_candidate_trivial(self):
        result = localize_polluter(perfect_probe(4), [4])
        assert result.converged
        assert result.probes_used == 0

    def test_history_records_probes(self):
        result = localize_polluter(perfect_probe(3), [1, 2, 3, 4])
        assert len(result.history) == result.probes_used
        for subset, detected in result.history:
            assert detected == (3 in subset)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ProtocolError):
            localize_polluter(perfect_probe(1), [])


class TestNoisyProbe:
    def test_majority_voting_overrides_flaky_probe(self):
        """A probe that fails once per subset still converges with 3
        votes."""
        attacker = 11
        failures = set()

        def flaky(subset):
            if attacker in subset and subset not in failures:
                failures.add(subset)
                return False  # first query on this subset lies
            return attacker in subset

        result = localize_polluter(
            flaky, list(range(1, 17)), votes_per_probe=3
        )
        assert result.suspects == (attacker,)

    def test_even_votes_rejected(self):
        with pytest.raises(ProtocolError):
            localize_polluter(perfect_probe(1), [1, 2], votes_per_probe=2)

    def test_max_probes_bounds_work(self):
        def always_detect(subset):
            return True  # pathological: narrows forever to the left

        result = localize_polluter(
            always_detect, list(range(1, 1000)), max_probes=5
        )
        assert result.probes_used <= 5


class TestBound:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, 0), (2, 1), (3, 2), (8, 3), (9, 4), (16, 4), (17, 5), (100, 7)],
    )
    def test_bound_values(self, n, expected):
        assert expected_probe_bound(n) == expected

    def test_invalid_input(self):
        with pytest.raises(ProtocolError):
            expected_probe_bound(0)
