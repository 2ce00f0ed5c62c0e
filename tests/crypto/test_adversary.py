"""Unit tests for the adversary link-break model."""

import numpy as np
import pytest

from repro.crypto.adversary_keys import LinkBreakModel
from repro.crypto.keys import KeyRing
from repro.crypto.predistribution import RandomPredistributionScheme
from repro.errors import CryptoError


class TestLinkBreakModel:
    def test_fate_memoized(self):
        model = LinkBreakModel(0.5, rng=np.random.default_rng(0))
        first = model.is_broken(1, 2)
        for _ in range(20):
            assert model.is_broken(1, 2) == first

    def test_symmetric_links(self):
        model = LinkBreakModel(0.5, rng=np.random.default_rng(0))
        assert model.is_broken(1, 2) == model.is_broken(2, 1)

    def test_p_zero_breaks_nothing(self):
        model = LinkBreakModel(0.0, rng=np.random.default_rng(0))
        assert not any(model.is_broken(i, i + 1) for i in range(100))

    def test_p_one_breaks_everything(self):
        model = LinkBreakModel(1.0, rng=np.random.default_rng(0))
        assert all(model.is_broken(i, i + 1) for i in range(100))

    def test_empirical_rate_matches_p(self):
        model = LinkBreakModel(0.3, rng=np.random.default_rng(7))
        broken = sum(model.is_broken(i, i + 1) for i in range(5000))
        assert broken / 5000 == pytest.approx(0.3, abs=0.03)

    def test_always_broken_links(self):
        model = LinkBreakModel(0.0, always_broken={(2, 1)})
        assert model.is_broken(1, 2)
        assert not model.is_broken(3, 4)

    def test_can_read_matches_fate(self):
        model = LinkBreakModel(0.0, always_broken={(1, 2)})
        assert model.is_broken(1, 2)
        assert not model.is_broken(3, 4)

    def test_invalid_p_rejected(self):
        with pytest.raises(CryptoError):
            LinkBreakModel(-0.1)
        with pytest.raises(CryptoError):
            LinkBreakModel(1.1)


class TestStructuralConstructions:
    def test_captured_nodes_break_their_links(self):
        # Capturing node 2 hands the adversary its whole ring, so every
        # link node 2 secures uses a key the adversary holds.
        scheme = RandomPredistributionScheme(
            40, 12, rng=np.random.default_rng(5)
        )
        scheme.provision_all([1, 2, 3])
        captured = KeyRing(scheme.ring(2).as_frozenset())
        links = {(1, 2), (2, 3)}
        model = LinkBreakModel.from_eg_overlap(scheme, captured, links)
        secured = [link for link in sorted(links) if scheme.can_secure(*link)]
        assert secured
        assert all(model.is_broken(*link) for link in secured)

    def test_eg_overlap_breaks_shared_key_links(self):
        scheme = RandomPredistributionScheme(
            20, 10, rng=np.random.default_rng(4)
        )
        scheme.provision_all([1, 2])
        adversary_ring = KeyRing(scheme.ring(1).as_frozenset())
        model = LinkBreakModel.from_eg_overlap(
            scheme, adversary_ring, {(1, 2)}
        )
        if scheme.can_secure(1, 2):
            # The adversary holds node 1's whole ring, so it must hold
            # whatever key the (1, 2) link uses.
            assert model.is_broken(1, 2)
