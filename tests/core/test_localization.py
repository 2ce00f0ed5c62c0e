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


class TestTermination:
    def test_max_probes_bounds_work(self):
        """A pathological probe that always detects still ends within
        the log bound (every probe halves the candidates)."""

        def always_detect(subset):
            return True  # narrows to the leftmost candidate

        clusters = list(range(1, 1000))
        result = localize_polluter(always_detect, clusters)
        assert result.probes_used <= expected_probe_bound(len(clusters))
        assert result.suspects == (1,)


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
