"""Keys, per-node key rings, and the pairwise key scheme.

A :class:`Key` is an opaque identity (we model possession, not bits). A
:class:`KeyRing` is the set of keys a principal holds. The
:class:`PairwiseKeyScheme` gives every node pair that needs to talk a
dedicated key — the strongest (and most storage-hungry) baseline; the
probabilistic alternative lives in :mod:`repro.crypto.predistribution`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.errors import NoSharedKeyError


@dataclass(frozen=True)
class Key:
    """An opaque symmetric key, identified by an integer id.

    Two :class:`Key` objects are the same key iff their ids match.
    """

    key_id: int

    def wire_size(self) -> int:
        """Keys are never sent in cleartext; referencing one costs 2 bytes
        (a key index in a predistribution pool)."""
        return 2


class KeyRing:
    """The set of keys one principal holds.

    Supports membership, insertion (node capture adds the victim's ring to
    the adversary's), and shared-key discovery between two rings.
    """

    def __init__(self, keys: Optional[Iterable[Key]] = None) -> None:
        self._keys: Set[Key] = set(keys) if keys else set()

    def __contains__(self, key: Key) -> bool:
        return key in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def add(self, key: Key) -> None:
        """Add one key to the ring."""
        self._keys.add(key)

    def update(self, other: "KeyRing") -> None:
        """Absorb every key from ``other`` (node-capture semantics)."""
        self._keys |= other._keys

    def shared_with(self, other: "KeyRing") -> FrozenSet[Key]:
        """Keys present in both rings."""
        return frozenset(self._keys & other._keys)

    def as_frozenset(self) -> FrozenSet[Key]:
        """Immutable snapshot of the ring."""
        return frozenset(self._keys)


class PairwiseKeyScheme:
    """Dedicated key per (unordered) node pair.

    Keys are minted lazily on first use, deterministically per pair, so a
    third node can never hold a pair's key — the *ideal* key management
    against which random predistribution is compared in the privacy
    experiments.
    """

    #: Key-id namespace offset so pairwise ids never collide with pool ids.
    _NAMESPACE = 1_000_000_000

    def __init__(self) -> None:
        self._pair_keys: Dict[Tuple[int, int], Key] = {}
        self._rings: Dict[int, KeyRing] = {}
        self._next_id = self._NAMESPACE

    def ring(self, node_id: int) -> KeyRing:
        """The key ring held by ``node_id`` (created empty on first use)."""
        ring = self._rings.get(node_id)
        if ring is None:
            ring = KeyRing()
            self._rings[node_id] = ring
        return ring

    def link_key(self, a: int, b: int) -> Key:
        """The key protecting the link between ``a`` and ``b``.

        Raises
        ------
        NoSharedKeyError
            If ``a == b`` — a node needs no key to talk to itself.
        """
        if a == b:
            raise NoSharedKeyError(f"node {a} cannot establish a link key with itself")
        pair = (a, b) if a < b else (b, a)
        key = self._pair_keys.get(pair)
        if key is None:
            key = Key(self._next_id)
            self._next_id += 1
            self._pair_keys[pair] = key
            self.ring(a).add(key)
            self.ring(b).add(key)
        return key

