"""Adversary key knowledge: the per-link break model.

The paper's privacy capacity is stated in terms of ``p_x`` — the
probability that an adversary can read the traffic on any *given* link.
:class:`LinkBreakModel` realizes that abstraction: each (unordered) link
is independently broken with probability ``p_x``, decided once per run
and memoized so repeated questions about the same link are consistent
(an adversary either has a link's key material or it does not).

The model can also be seeded from *structural* knowledge — EG
third-party key overlap — via :meth:`LinkBreakModel.from_eg_overlap`.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.crypto.keys import KeyRing
from repro.crypto.predistribution import RandomPredistributionScheme
from repro.errors import CryptoError


class LinkBreakModel:
    """Which links the adversary can read.

    Parameters
    ----------
    p_x:
        Independent per-link break probability.
    rng:
        Random stream deciding link fates (memoized per link).
    always_broken:
        Links known broken a priori (e.g. via captured keys).
    """

    def __init__(
        self,
        p_x: float,
        rng: Optional[np.random.Generator] = None,
        always_broken: Optional[Set[Tuple[int, int]]] = None,
    ) -> None:
        if not 0.0 <= p_x <= 1.0:
            raise CryptoError(f"p_x must be in [0, 1], got {p_x}")
        self.p_x = p_x
        self._rng = rng if rng is not None else np.random.default_rng()
        self._fate: Dict[Tuple[int, int], bool] = {}
        if always_broken:
            for link in always_broken:
                self._fate[self._norm(link)] = True

    @staticmethod
    def _norm(link: Tuple[int, int]) -> Tuple[int, int]:
        a, b = link
        return (a, b) if a <= b else (b, a)

    def is_broken(self, a: int, b: int) -> bool:
        """True if the adversary can read link ``(a, b)``.

        The fate of each link is drawn once and remembered.
        """
        key = self._norm((a, b))
        fate = self._fate.get(key)
        if fate is None:
            fate = bool(self._rng.random() < self.p_x)
            self._fate[key] = fate
        return fate

    # -- structural constructions ------------------------------------------

    @classmethod
    def from_eg_overlap(
        cls,
        scheme: RandomPredistributionScheme,
        adversary_ring: KeyRing,
        links: Set[Tuple[int, int]],
    ) -> "LinkBreakModel":
        """Build a model from EG key overlap: a link is broken iff the
        adversary's ring holds the key that link actually uses."""
        broken: Set[Tuple[int, int]] = set()
        for a, b in links:
            if not scheme.can_secure(a, b):
                continue
            if scheme.link_key(a, b) in adversary_ring:
                broken.add((a, b) if a <= b else (b, a))
        return cls(0.0, always_broken=broken)
