"""SMART-style slice-and-assemble private aggregation (comparison
scheme).

The slicing technique — which the authors' PDA/iPDA papers build on —
hides a reading by splitting it into ``l`` random pieces: the node keeps
one and sends ``l - 1`` encrypted to randomly chosen neighbors; each
node then treats (kept piece + received pieces) as its reading and a
plain TAG epoch aggregates the assembled values. Additivity makes the
final sum exact when nothing is lost.

Implemented here as the second privacy baseline so iCPDA can be compared
on the family's own axes:

* **privacy**: disclosing node ``i`` requires all ``l-1`` outgoing slice
  links *and* all incoming slice links (the assembled value travels in
  cleartext during TAG) — the iPDA analysis shape;
* **overhead**: ``2l - 1``-ish transmissions per node before the TAG
  epoch (plus acks, which this implementation costs honestly);
* **fragility**: a lost slice corrupts the sum by a *random* amount of
  the masking scale — unlike TAG (loses one bounded reading) or iCPDA
  (loses a cluster, detected via census). ARQ makes this rare, but the
  failure mode is qualitatively different and the accuracy comparison
  exposes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.aggregation.functions import AdditiveAggregate
from repro.aggregation.tag import TagProtocol, TagResult
from repro.aggregation.tree import TreeBuildResult
from repro.core.arq import StopAndWait
from repro.core.intracluster import ShareTransmission
from repro.crypto.linksec import LinkSecurity
from repro.errors import AggregationError, NoSharedKeyError
from repro.net.packet import Packet
from repro.net.transport import Transport

SLICE_KIND = "slice"
SLICE_ACK_KIND = "slice_ack"

#: Default masking half-range for slice values, in fixed-point units.
#: Slices are uniform in [-MASK, MASK]. Privacy wants the mask to cover
#: the public data range (so a piece reveals nothing); robustness wants
#: it small (a lost slice or lost TAG partial corrupts the sum by up to
#: the mask) — a real trade-off of the slicing scheme that iCPDA's
#: field-exact shares do not have. The default suits readings up to
#: ~100.0 at the default fixed-point scale.
DEFAULT_SLICE_MASK = 10**4

#: Slice hop ARQ: the first retransmit waits this long, and a slice is
#: sent again at most ``SLICE_RETRIES`` times (the iCPDA share defaults).
SLICE_ACK_TIMEOUT_S = 0.35
SLICE_RETRIES = 3


@dataclass
class SlicingResult:
    """Outcome of one slice-assemble-aggregate round.

    Attributes
    ----------
    tag:
        The embedded TAG epoch's result over assembled values.
    slices_sent / slices_delivered:
        Slice-delivery accounting (losses corrupt the sum).
    slice_log:
        Per-slice transmissions, consumable by
        :class:`repro.attacks.eavesdrop.EavesdropAnalysis`.
    """

    tag: TagResult
    slices_sent: int
    slices_delivered: int
    slice_log: List[ShareTransmission] = field(default_factory=list)

    @property
    def share_log(self) -> List[ShareTransmission]:
        """Alias so the eavesdropping analysis can consume this result
        exactly like an iCPDA exchange."""
        return self.slice_log


class SlicingAggregation:
    """One slicing round bound to a network, tree, and aggregate.

    Each slice crosses its hop under stop-and-wait ARQ with fixed
    settings (:data:`SLICE_ACK_TIMEOUT_S`, :data:`SLICE_RETRIES`).

    Parameters
    ----------
    stack, tree, aggregate:
        As for :class:`~repro.aggregation.tag.TagProtocol`.
    linksec:
        Link encryption for the slices.
    num_slices:
        ``l``: pieces per reading (one kept + ``l-1`` sent).
    slice_mask:
        Half-range of the uniform slice mask, fixed-point units; should
        cover the public data range (see :data:`DEFAULT_SLICE_MASK`).
    slicing_window_s:
        Virtual-time budget for slice delivery before TAG starts.
    """

    def __init__(
        self,
        stack: Transport,
        tree: TreeBuildResult,
        aggregate: AdditiveAggregate,
        linksec: LinkSecurity,
        *,
        num_slices: int = 2,
        slice_mask: int = DEFAULT_SLICE_MASK,
        slicing_window_s: float = 10.0,
        slot_s: float = 0.5,
    ) -> None:
        if num_slices < 1:
            raise AggregationError(f"num_slices must be >= 1, got {num_slices}")
        if slice_mask < 1:
            raise AggregationError(f"slice_mask must be >= 1, got {slice_mask}")
        self._mask = slice_mask
        self._stack = stack
        self._tree = tree
        self._aggregate = aggregate
        self._linksec = linksec
        self._num_slices = num_slices
        self._window = slicing_window_s
        self._slot_s = slot_s
        self._rng = stack.sim.rng.stream("slicing")
        self._assembled: Dict[int, List[int]] = {}
        self._contributes: Dict[int, int] = {}
        self._arq = StopAndWait(stack, SLICE_ACK_TIMEOUT_S, SLICE_RETRIES, base=1.0)
        self.sent = 0
        self.delivered = 0
        self.slice_log: List[ShareTransmission] = []

    def run(self, readings: Dict[int, float]) -> SlicingResult:
        """Slice, deliver, assemble, then aggregate via TAG.

        Raises
        ------
        AggregationError
            If ``readings`` is empty.
        """
        if not readings:
            raise AggregationError("slicing round needs at least one reading")
        sim = self._stack.sim
        arity = self._aggregate.arity
        participants = [
            node for node in self._tree.parents if node in readings
        ]
        on_slice, on_slice_ack = self._on_slice, self._on_slice_ack
        for node in self._tree.parents:
            self._assembled[node] = [0] * arity
            self._contributes[node] = 0
            self._stack.register_handler(node, SLICE_KIND, on_slice)
            self._stack.register_handler(node, SLICE_ACK_KIND, on_slice_ack)

        for node in participants:
            delay = float(self._rng.uniform(0.05, self._window * 0.3))
            sim.schedule(
                delay,
                self._slice_and_send,
                args=(node, readings[node]),
            )

        sim.run(until=sim.now + self._window)

        true_value = self._aggregate.true_value(list(readings.values()))
        initial = {
            node: (tuple(self._assembled[node]), self._contributes[node])
            for node in self._tree.parents
            if self._contributes[node] > 0 or any(self._assembled[node])
        }
        tag = TagProtocol(
            self._stack, self._tree, self._aggregate, slot_s=self._slot_s
        )
        tag_result = tag.run_encoded(initial, true_value)
        return SlicingResult(
            tag=tag_result,
            slices_sent=self.sent,
            slices_delivered=self.delivered,
            slice_log=list(self.slice_log),
        )

    # -- slicing ----------------------------------------------------------------

    def _slice_and_send(self, node: int, reading: float) -> None:
        components = self._aggregate.components(reading)
        arity = len(components)
        neighbors = [
            n
            for n in self._stack.neighbors(node)
            if n in self._tree.parents and self._linksec.can_secure(node, n)
        ]
        count = min(self._num_slices - 1, len(neighbors))
        kept = list(components)
        self._contributes[node] += 1
        if count > 0:
            picked = self._rng.choice(neighbors, size=count, replace=False)
            for recipient in picked.tolist():
                piece = [
                    int(self._rng.integers(-self._mask, self._mask + 1))
                    for _ in range(arity)
                ]
                for k in range(arity):
                    kept[k] -= piece[k]
                try:
                    ciphertext = self._linksec.seal(node, recipient, piece)
                except NoSharedKeyError:  # pragma: no cover - filtered above
                    continue
                payload = {"origin": node, "dst": recipient, "ct": ciphertext}
                self._arq.send(
                    node,
                    recipient,
                    self._stack.send,
                    (node, recipient, SLICE_KIND, payload),
                )
                self.sent += 1
                self.slice_log.append(
                    ShareTransmission(
                        origin=node, recipient=recipient, links=((node, recipient),)
                    )
                )
        for k in range(arity):
            self._assembled[node][k] += kept[k]

    def _on_slice(self, node: int, packet: Packet) -> None:
        if int(packet.payload["dst"]) != node:
            return
        origin = int(packet.payload["origin"])
        self._stack.send(
            node, packet.src, SLICE_ACK_KIND, {"origin": origin, "dst": node}
        )
        if not self._arq.take(node, origin):
            return  # retransmission after a lost ack
        piece = self._linksec.open(node, packet.payload["ct"])
        for k, value in enumerate(piece):
            self._assembled[node][k] += int(value)
        self.delivered += 1

    def _on_slice_ack(self, node: int, packet: Packet) -> None:
        if int(packet.payload["origin"]) == node:
            self._arq.ack(node, int(packet.payload["dst"]))
