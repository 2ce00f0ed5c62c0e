"""Eschenauer–Gligor random key predistribution.

Each node is preloaded with a *ring* of ``ring_size`` keys drawn without
replacement from a global pool of ``pool_size`` keys. Two neighbors can
secure their link iff their rings intersect; they use the smallest-id
shared key. The scheme's known weakness — a third node may hold the same
pool key and read the link — is precisely one of the privacy-violation
channels the paper analyzes, and it is reproduced here faithfully.
"""

from __future__ import annotations

from math import comb
from typing import Dict, List, Optional

import numpy as np

from repro.crypto.keys import Key, KeyRing
from repro.errors import CryptoError, NoSharedKeyError


class RandomPredistributionScheme:
    """EG-style random key predistribution over a node population.

    Parameters
    ----------
    pool_size:
        Size of the global key pool ``P``.
    ring_size:
        Keys preloaded per node ``k`` (must not exceed the pool).
    rng:
        Random stream used to deal the rings.
    """

    def __init__(
        self,
        pool_size: int,
        ring_size: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if pool_size < 1:
            raise CryptoError(f"pool_size must be >= 1, got {pool_size}")
        if not 1 <= ring_size <= pool_size:
            raise CryptoError(
                f"ring_size must be in [1, pool_size], got {ring_size}"
            )
        self.pool_size = pool_size
        self.ring_size = ring_size
        self._rng = rng if rng is not None else np.random.default_rng()
        self._rings: Dict[int, KeyRing] = {}

    # -- provisioning ------------------------------------------------------

    def provision(self, node_id: int) -> KeyRing:
        """Deal ``node_id`` its key ring (idempotent)."""
        ring = self._rings.get(node_id)
        if ring is None:
            drawn = self._rng.choice(self.pool_size, size=self.ring_size, replace=False)
            ring = KeyRing(Key(int(key_id)) for key_id in drawn)
            self._rings[node_id] = ring
        return ring

    def provision_all(self, node_ids: List[int]) -> None:
        """Deal rings to every node in ``node_ids``."""
        for node_id in node_ids:
            self.provision(node_id)

    def ring(self, node_id: int) -> KeyRing:
        """The ring of ``node_id``.

        Raises
        ------
        CryptoError
            If the node was never provisioned.
        """
        ring = self._rings.get(node_id)
        if ring is None:
            raise CryptoError(f"node {node_id} was not provisioned")
        return ring

    # -- link establishment --------------------------------------------------

    def link_key(self, a: int, b: int) -> Key:
        """Smallest-id key shared by ``a`` and ``b``.

        Raises
        ------
        NoSharedKeyError
            If the rings do not intersect (the link cannot be secured).
        """
        shared = self.ring(a).shared_with(self.ring(b))
        if not shared:
            raise NoSharedKeyError(f"nodes {a} and {b} share no key")
        return min(shared, key=lambda key: key.key_id)

    def can_secure(self, a: int, b: int) -> bool:
        """True if ``a`` and ``b`` share at least one key."""
        return bool(self.ring(a).shared_with(self.ring(b)))

    # -- analysis ------------------------------------------------------------

    def connect_probability(self) -> float:
        """Analytic probability that two rings share >= 1 key:
        ``1 - C(P-k, k) / C(P, k)``."""
        p, k = self.pool_size, self.ring_size
        if k * 2 > p:
            return 1.0
        return 1.0 - comb(p - k, k) / comb(p, k)
