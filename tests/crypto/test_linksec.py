"""Unit tests for possession-model link encryption."""

import pytest

from repro.crypto.keys import KeyRing, PairwiseKeyScheme
from repro.crypto.linksec import CIPHERTEXT_OVERHEAD_BYTES, Ciphertext, LinkSecurity
from repro.errors import MissingKeyError


class TestCiphertext:
    def test_key_holder_opens(self):
        scheme = PairwiseKeyScheme()
        key = scheme.link_key(1, 2)
        ciphertext = Ciphertext(key_id=key.key_id, _plaintext=[1, 2, 3])
        assert ciphertext.open(scheme.ring(2)) == [1, 2, 3]

    def test_non_holder_cannot_open(self):
        scheme = PairwiseKeyScheme()
        key = scheme.link_key(1, 2)
        scheme.link_key(3, 4)
        ciphertext = Ciphertext(key_id=key.key_id, _plaintext="secret")
        with pytest.raises(MissingKeyError):
            ciphertext.open(scheme.ring(3))

    def test_empty_ring_cannot_open(self):
        ciphertext = Ciphertext(key_id=5, _plaintext="secret")
        with pytest.raises(MissingKeyError):
            ciphertext.open(KeyRing())

    def test_wire_size_includes_overhead(self):
        ciphertext = Ciphertext(key_id=1, _plaintext=[2**40, 2**40])
        assert ciphertext.wire_size() == 16 + CIPHERTEXT_OVERHEAD_BYTES


class TestLinkSecurity:
    def test_seal_open_roundtrip(self):
        linksec = LinkSecurity(PairwiseKeyScheme())
        ciphertext = linksec.seal(1, 2, {"v": 9})
        assert linksec.open(2, ciphertext) == {"v": 9}

    def test_third_party_cannot_open(self):
        scheme = PairwiseKeyScheme()
        linksec = LinkSecurity(scheme)
        ciphertext = linksec.seal(1, 2, "private")
        scheme.ring(3)  # provision an empty ring for node 3
        with pytest.raises(MissingKeyError):
            linksec.open(3, ciphertext)

    def test_sender_can_also_open(self):
        linksec = LinkSecurity(PairwiseKeyScheme())
        ciphertext = linksec.seal(1, 2, "x")
        assert linksec.open(1, ciphertext) == "x"

    def test_can_secure_pairwise_always(self):
        linksec = LinkSecurity(PairwiseKeyScheme())
        assert linksec.can_secure(1, 2)
        assert not linksec.can_secure(1, 1)
