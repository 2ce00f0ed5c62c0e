"""Possession-model link encryption.

A :class:`Ciphertext` wraps a plaintext value together with the id of the
key that sealed it. Opening requires presenting a :class:`KeyRing` that
holds that key — attempting without it raises, so tests can prove that an
eavesdropper without the key *cannot* observe a share even though the
object physically flows through its overhear listener.

:class:`LinkSecurity` binds a key-management scheme to a network: it
answers "which key protects link (a, b)" and performs seal/open on behalf
of nodes. Wire size of a ciphertext = plaintext size + a small constant
(IV/MAC), so encrypted protocols pay an honest byte overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union

from repro.crypto.keys import Key, KeyRing, PairwiseKeyScheme
from repro.crypto.predistribution import RandomPredistributionScheme
from repro.errors import MissingKeyError
from repro.net.packet import payload_size

#: Per-ciphertext byte overhead (IV + truncated MAC), typical for WSN AEAD.
CIPHERTEXT_OVERHEAD_BYTES = 8


@dataclass(frozen=True)
class Ciphertext:
    """A sealed value that only key holders can open.

    Attributes
    ----------
    key_id:
        Identity of the sealing key.
    _plaintext:
        The protected value. Private by convention: honest code goes
        through :meth:`open`; tests may inspect it to assert leakage.
    """

    key_id: int
    _plaintext: Any

    def open(self, ring: KeyRing) -> Any:
        """Decrypt with ``ring``.

        Raises
        ------
        MissingKeyError
            If the ring does not hold the sealing key.
        """
        if Key(self.key_id) not in ring:
            raise MissingKeyError(f"ring does not hold key {self.key_id}")
        return self._plaintext

    def wire_size(self) -> int:
        """Bytes on the wire: plaintext size plus AEAD overhead."""
        return payload_size(self._plaintext) + CIPHERTEXT_OVERHEAD_BYTES


class LinkSecurity:
    """Seal/open facade binding a key scheme to node ids.

    Parameters
    ----------
    scheme:
        A :class:`PairwiseKeyScheme` or
        :class:`RandomPredistributionScheme`: anything that names a
        link's key (``link_key(a, b)``) and a node's ring
        (``ring(node_id)``).
    """

    def __init__(
        self,
        scheme: Union[PairwiseKeyScheme, RandomPredistributionScheme],
    ) -> None:
        self._scheme = scheme

    @property
    def scheme(self) -> Union[PairwiseKeyScheme, RandomPredistributionScheme]:
        """The underlying key-management scheme."""
        return self._scheme

    def seal(self, sender: int, receiver: int, value: Any) -> Ciphertext:
        """Encrypt ``value`` under the (sender, receiver) link key.

        Raises
        ------
        NoSharedKeyError
            If the scheme cannot secure this link.
        """
        key = self._scheme.link_key(sender, receiver)
        return Ciphertext(key_id=key.key_id, _plaintext=value)

    def open(self, receiver: int, ciphertext: Ciphertext) -> Any:
        """Decrypt ``ciphertext`` with ``receiver``'s ring.

        Raises
        ------
        MissingKeyError
            If the receiver does not hold the key.
        """
        return ciphertext.open(self._scheme.ring(receiver))

    def can_secure(self, a: int, b: int) -> bool:
        """True if a link key exists (or can be minted) for ``(a, b)``."""
        can = getattr(self._scheme, "can_secure", None)
        if can is not None:
            return bool(can(a, b))
        return a != b
