"""Link-eavesdropping adversary (privacy experiments).

The adversary passively records ciphertext on every link it has broken
(per-link probability ``p_x``, or structurally via captured keys /
EG pool overlap) and tries to reconstruct individual readings from a
round's share traffic. Reconstruction of node ``i``'s reading in a
cluster of ``m`` members requires

* **all** ``m-1`` shares ``i`` sent out (each readable if *any* physical
  hop of that ciphertext crossed a broken link), **and**
* **all** ``m-1`` shares sent *to* ``i`` — because ``F(x_i)`` is public,
  so ``f_i(x_i) = F(x_i) - Σ_{j≠i} f_j(x_i)`` once the in-shares are
  known.

Compromised members (collusion sets) contribute their knowledge for
free; see :mod:`repro.attacks.collusion` for that extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.intracluster import ExchangeResult, ShareTransmission
from repro.crypto.adversary_keys import LinkBreakModel
from repro.metrics.privacy import DisclosureStats


@dataclass(frozen=True)
class NodeDisclosure:
    """Why one node's reading was (or was not) disclosed.

    Attributes
    ----------
    node:
        The victim.
    out_shares_read / out_shares_total:
        Outgoing shares the adversary could read, over those sent.
    in_shares_read / in_shares_total:
        Incoming shares readable, over those received.
    disclosed:
        True iff both sets were complete.
    """

    node: int
    out_shares_read: int
    out_shares_total: int
    in_shares_read: int
    in_shares_total: int

    @property
    def disclosed(self) -> bool:
        """Full reconstruction achieved."""
        return (
            self.out_shares_total > 0
            and self.out_shares_read == self.out_shares_total
            and self.in_shares_read == self.in_shares_total
        )


class EavesdropAnalysis:
    """Evaluate a round's share traffic against a link-break model.

    Parameters
    ----------
    exchange:
        The round's :class:`~repro.core.intracluster.ExchangeResult`
        (its ``share_log`` is the adversary's wiretap universe).
    break_model:
        Which links the adversary reads.
    colluders:
        Optional compromised member set whose plaintext knowledge the
        adversary inherits.
    """

    def __init__(
        self,
        exchange: ExchangeResult,
        break_model: LinkBreakModel,
        colluders: Optional[Set[int]] = None,
    ) -> None:
        self._exchange = exchange
        self._break_model = break_model
        self._colluders = set(colluders) if colluders else set()

    def share_readable(self, transmission: ShareTransmission) -> bool:
        """Can the adversary read this share's plaintext?

        True if any physical hop crossed a broken link, or if either
        endpoint of the share (origin or recipient) is a colluder.
        """
        if (
            transmission.origin in self._colluders
            or transmission.recipient in self._colluders
        ):
            return True
        return any(
            self._break_model.is_broken(a, b) for a, b in transmission.links
        )

    def node_disclosure(self, node: int) -> NodeDisclosure:
        """Reconstruct-ability verdict for one participant."""
        out_total = out_read = in_total = in_read = 0
        for transmission in self._exchange.share_log:
            if transmission.origin == node:
                out_total += 1
                if self.share_readable(transmission):
                    out_read += 1
            elif transmission.recipient == node:
                in_total += 1
                if self.share_readable(transmission):
                    in_read += 1
        return NodeDisclosure(
            node=node,
            out_shares_read=out_read,
            out_shares_total=out_total,
            in_shares_read=in_read,
            in_shares_total=in_total,
        )

    def participants(self) -> List[int]:
        """Nodes that sent at least one share (excluding colluders —
        their privacy is forfeit by assumption, not by the protocol)."""
        nodes: Set[int] = set()
        for transmission in self._exchange.share_log:
            nodes.add(transmission.origin)
        return sorted(nodes - self._colluders)

    def run(self) -> Tuple[DisclosureStats, Dict[int, NodeDisclosure]]:
        """Full sweep: stats plus per-node verdicts."""
        verdicts: Dict[int, NodeDisclosure] = {}
        disclosed = 0
        participants = self.participants()
        for node in participants:
            verdict = self.node_disclosure(node)
            verdicts[node] = verdict
            if verdict.disclosed:
                disclosed += 1
        stats = DisclosureStats.from_counts(disclosed, len(participants))
        return stats, verdicts
