"""Unit tests for keys, key rings, and the pairwise scheme."""

import pytest

from repro.crypto.keys import Key, KeyRing, PairwiseKeyScheme
from repro.errors import NoSharedKeyError


class TestKeyRing:
    def test_membership(self):
        ring = KeyRing([Key(1), Key(2)])
        assert Key(1) in ring
        assert Key(3) not in ring
        assert len(ring) == 2

    def test_add_and_update(self):
        ring = KeyRing()
        ring.add(Key(1))
        other = KeyRing([Key(2), Key(3)])
        ring.update(other)
        assert len(ring) == 3

    def test_shared_with(self):
        a = KeyRing([Key(1), Key(2), Key(3)])
        b = KeyRing([Key(2), Key(3), Key(4)])
        assert a.shared_with(b) == frozenset({Key(2), Key(3)})

    def test_key_equality_by_id(self):
        assert Key(5) == Key(5)
        assert Key(5) != Key(6)

    def test_key_wire_size(self):
        assert Key(5).wire_size() == 2


class TestPairwiseScheme:
    def test_link_key_symmetric(self):
        scheme = PairwiseKeyScheme()
        assert scheme.link_key(1, 2) == scheme.link_key(2, 1)

    def test_distinct_pairs_distinct_keys(self):
        scheme = PairwiseKeyScheme()
        assert scheme.link_key(1, 2) != scheme.link_key(1, 3)

    def test_both_endpoints_hold_key(self):
        scheme = PairwiseKeyScheme()
        key = scheme.link_key(1, 2)
        assert key in scheme.ring(1)
        assert key in scheme.ring(2)
        assert key not in scheme.ring(3)

    def test_exactly_two_holders(self):
        scheme = PairwiseKeyScheme()
        key = scheme.link_key(4, 9)
        scheme.link_key(4, 5)
        assert {node for node in (4, 5, 9) if key in scheme.ring(node)} == {4, 9}

    def test_self_link_rejected(self):
        with pytest.raises(NoSharedKeyError):
            PairwiseKeyScheme().link_key(3, 3)
