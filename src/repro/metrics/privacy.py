"""Empirical privacy-disclosure statistics.

The eavesdropping experiments (F2) run a Monte-Carlo adversary over the
share-exchange structure and count how many nodes' readings were
reconstructible. This module holds the estimator those runs report.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Sequence

from repro.errors import ReproError


@dataclass(frozen=True)
class DisclosureStats:
    """Disclosure-probability estimate with a normal-approx CI.

    Attributes
    ----------
    disclosed / exposed:
        Nodes whose reading leaked, out of nodes that participated.
    probability:
        Point estimate ``disclosed / exposed``.
    stderr:
        Binomial standard error of the estimate.
    """

    disclosed: int
    exposed: int
    probability: float
    stderr: float

    @classmethod
    def from_counts(cls, disclosed: int, exposed: int) -> "DisclosureStats":
        """Build from raw counts.

        Raises
        ------
        ReproError
            If counts are negative or inconsistent.
        """
        if exposed < 0 or disclosed < 0 or disclosed > exposed:
            raise ReproError(
                f"inconsistent disclosure counts: {disclosed}/{exposed}"
            )
        if exposed == 0:
            return cls(0, 0, 0.0, 0.0)
        p = disclosed / exposed
        stderr = sqrt(p * (1.0 - p) / exposed)
        return cls(disclosed, exposed, p, stderr)

    @classmethod
    def pooled(cls, parts: Sequence["DisclosureStats"]) -> "DisclosureStats":
        """Pool several trials' counts into one estimate."""
        disclosed = sum(p.disclosed for p in parts)
        exposed = sum(p.exposed for p in parts)
        return cls.from_counts(disclosed, exposed)
