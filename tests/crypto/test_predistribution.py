"""Unit tests for Eschenauer-Gligor random key predistribution."""

import numpy as np
import pytest

from repro.crypto.adversary_keys import LinkBreakModel
from repro.crypto.predistribution import RandomPredistributionScheme
from repro.errors import CryptoError, NoSharedKeyError


def make_scheme(pool=100, ring=20, seed=0):
    return RandomPredistributionScheme(
        pool, ring, rng=np.random.default_rng(seed)
    )


class TestProvisioning:
    def test_ring_size_respected(self):
        scheme = make_scheme()
        assert len(scheme.provision(1)) == 20

    def test_provision_idempotent(self):
        scheme = make_scheme()
        first = scheme.provision(1).as_frozenset()
        second = scheme.provision(1).as_frozenset()
        assert first == second

    def test_unprovisioned_ring_raises(self):
        with pytest.raises(CryptoError):
            make_scheme().ring(1)

    def test_validation(self):
        with pytest.raises(CryptoError):
            RandomPredistributionScheme(0, 1)
        with pytest.raises(CryptoError):
            RandomPredistributionScheme(10, 11)


class TestLinkEstablishment:
    def test_overlapping_rings_share_key(self):
        # Ring size 20 of pool 100: overlap is nearly certain.
        scheme = make_scheme()
        scheme.provision_all([1, 2])
        if scheme.can_secure(1, 2):
            key = scheme.link_key(1, 2)
            assert key in scheme.ring(1)
            assert key in scheme.ring(2)

    def test_disjoint_rings_raise(self):
        # Tiny rings from a huge pool: overlap nearly impossible.
        scheme = RandomPredistributionScheme(
            1_000_000, 2, rng=np.random.default_rng(1)
        )
        scheme.provision_all([1, 2])
        if not scheme.can_secure(1, 2):
            with pytest.raises(NoSharedKeyError):
                scheme.link_key(1, 2)

    def test_link_key_is_deterministic(self):
        scheme = make_scheme()
        scheme.provision_all([1, 2])
        if scheme.can_secure(1, 2):
            assert scheme.link_key(1, 2) == scheme.link_key(1, 2)



class TestConnectProbability:
    def test_formula_matches_empirical(self):
        scheme = make_scheme(pool=50, ring=10, seed=7)
        analytic = scheme.connect_probability()
        rng = np.random.default_rng(9)
        trials = 2000
        hits = 0
        for _ in range(trials):
            a = set(rng.choice(50, size=10, replace=False))
            b = set(rng.choice(50, size=10, replace=False))
            hits += bool(a & b)
        assert hits / trials == pytest.approx(analytic, abs=0.03)

    def test_full_overlap_guaranteed(self):
        scheme = make_scheme(pool=10, ring=6)
        assert scheme.connect_probability() == 1.0


class TestThirdPartyExposure:
    def test_third_party_holders_found(self):
        """A bystander whose ring holds the link key reads the link."""
        scheme = make_scheme(pool=10, ring=5, seed=3)
        scheme.provision_all([1, 2, 3, 4, 5])
        assert scheme.can_secure(1, 2)
        key = scheme.link_key(1, 2)
        for bystander in (3, 4, 5):
            model = LinkBreakModel.from_eg_overlap(
                scheme, scheme.ring(bystander), {(1, 2)}
            )
            assert model.is_broken(1, 2) == (key in scheme.ring(bystander))

    def test_third_party_probability(self):
        """A given pool key sits in a fraction ``k / P`` of the rings."""
        scheme = make_scheme(pool=100, ring=20)
        nodes = list(range(2000))
        scheme.provision_all(nodes)
        key = min(scheme.ring(0).as_frozenset(), key=lambda k: k.key_id)
        holders = sum(key in scheme.ring(node) for node in nodes)
        assert holders / len(nodes) == pytest.approx(0.2, abs=0.03)
