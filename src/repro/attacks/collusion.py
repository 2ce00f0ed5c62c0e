"""Colluding-member analysis.

The CPDA algebra is information-theoretically private against up to
``m-2`` colluding members of an ``m``-cluster; when **all other** ``m-1``
members collude, the victim's reading falls out of the cluster sum by
subtraction. This module computes, for a given compromised set, exactly
which honest nodes lose their privacy *structurally* (no link breaking
needed) — the bound the paper defers to future work for its attacks, and
which the analysis section quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.core.intracluster import ExchangeResult


@dataclass(frozen=True)
class ClusterCollusionVerdict:
    """Collusion outcome for one cluster.

    Attributes
    ----------
    head:
        Cluster id.
    size:
        Participant count.
    colluders:
        Compromised participants in this cluster.
    victims:
        Honest participants whose reading is structurally disclosed —
        non-empty only when exactly one participant is honest.
    """

    head: int
    size: int
    colluders: frozenset
    victims: frozenset


class CollusionAnalysis:
    """Structural disclosure under a compromised member set.

    Parameters
    ----------
    exchange:
        The round's exchange result (participant lists per cluster).
    colluders:
        Compromised node ids.
    """

    def __init__(self, exchange: ExchangeResult, colluders: Set[int]) -> None:
        self._exchange = exchange
        self._colluders = set(colluders)

    def cluster_verdicts(self) -> List[ClusterCollusionVerdict]:
        """Per-cluster collusion outcomes (completed clusters only)."""
        verdicts = []
        for head, state in sorted(self._exchange.states.items()):
            if not state.completed:
                continue
            participants = set(state.participants)
            colluders = participants & self._colluders
            honest = participants - colluders
            victims = honest if len(honest) == 1 and colluders else set()
            verdicts.append(
                ClusterCollusionVerdict(
                    head=head,
                    size=len(participants),
                    colluders=frozenset(colluders),
                    victims=frozenset(victims),
                )
            )
        return verdicts

    def victims(self) -> Set[int]:
        """All structurally disclosed honest nodes."""
        result: Set[int] = set()
        for verdict in self.cluster_verdicts():
            result |= verdict.victims
        return result
