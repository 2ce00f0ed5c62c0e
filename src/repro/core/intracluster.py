"""Intra-cluster privacy-preserving aggregation (Phase III of iCPDA).

Within each active cluster of ``m`` members every member:

1. splits its additive components into ``m`` polynomial shares
   (:mod:`repro.core.shares`) and delivers one **encrypted** share to each
   other member — directly when in radio range, otherwise relayed through
   the head (the relay cannot read the ciphertext); ARQ (ack + bounded
   retransmit) makes the local exchange robust to collisions;
2. once it holds shares from *all* members, assembles
   ``F(x_j) = Σ_i f_i(x_j)`` and broadcasts it (the head acknowledges;
   unacked F-values are rebroadcast) — F-values are public by design,
   they reveal only blinded sums;
3. the head — and every member that overheard all ``m`` F-values —
   recovers the cluster aggregate by Lagrange interpolation at zero.

Step 3 is the hinge of the whole design: because *every* member can
recover the cluster sum, every member is a competent witness for the
integrity phase. A cluster that cannot complete the exchange (lost
member list, exhausted retries, unsecurable link) aborts the round and
its readings count as loss — never as a privacy leak.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.aggregation.functions import AdditiveAggregate
from repro.core.arq import ACK_TIMEOUT_S, StopAndWait
from repro.core.clustering import ClusteringResult
from repro.core.config import IcpdaConfig
from repro.core.field import PrimeField
from repro.core.shares import (
    ShareBundle,
    generate_share_bundles,
    recover_cluster_sums,
    seed_for_node,
    sum_share_values,
)
from repro.crypto.linksec import Ciphertext, LinkSecurity
from repro.errors import NoSharedKeyError
from repro.net.packet import Packet
from repro.net.transport import OverhearListener, Transport

SHARE_KIND = "share"
SHARE_RELAY_KIND = "share_relay"
SHARE_ACK_KIND = "share_ack"
FVALUE_KIND = "fvalue"
FVALUE_ACK_KIND = "fvalue_ack"
FSET_KIND = "fset"

#: Virtual-time budget of the share exchange (seconds).
WINDOW_EXCHANGE_S = 25.0


@dataclass(frozen=True)
class ShareTransmission:
    """Log entry for one share delivery (consumed by the eavesdropping
    analysis: which physical links carried whose share).

    Attributes
    ----------
    origin / recipient:
        Whose polynomial, evaluated at whose seed.
    links:
        The physical (sender, receiver) hops the ciphertext crossed —
        one hop direct, two when relayed through the head.
    """

    origin: int
    recipient: int
    links: Tuple[Tuple[int, int], ...]


@dataclass
class ClusterExchangeState:
    """Mutable per-cluster progress during the exchange."""

    head: int
    participants: List[int]
    contributors: int
    completed: bool = False
    cluster_sums: Optional[Tuple[int, ...]] = None
    fvalues_at_head: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    aborted_reason: str = ""


@dataclass
class ExchangeResult:
    """Outcome of the exchange phase across all clusters.

    Attributes
    ----------
    states:
        head id -> per-cluster state (sums, completion).
    witness_sums:
        node id -> the cluster aggregate that member independently
        recovered (from overheard F-values, completed by the head's
        F-set rebroadcast).
    share_log:
        Every share delivery, for the privacy analysis.
    fset_conflicts:
        ``(member, head)`` pairs where the head's published F-set
        contradicts an F-value the member knows first-hand — hard
        evidence of tampering, turned into alarms by the report phase.
    """

    states: Dict[int, ClusterExchangeState] = field(default_factory=dict)
    witness_sums: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    fset_conflicts: List[Tuple[int, int]] = field(default_factory=list)
    _share_log: List[ShareTransmission] = field(default_factory=list, repr=False)
    _unbuilt: List[Callable[[], List[ShareTransmission]]] = field(
        default_factory=list, repr=False, compare=False
    )

    @property
    def share_log(self) -> List[ShareTransmission]:
        """Every share delivery, in send order. The scalar exchange
        appends as it sends; a batched exchange's entries are built on
        first read (:meth:`log_later`), and later reads return the same
        list."""
        while self._unbuilt:
            self._share_log.extend(self._unbuilt.pop(0)())
        return self._share_log

    def log_later(self, build: Callable[[], List[ShareTransmission]]) -> None:
        """Append ``build()``'s entries to the log when it is first read."""
        self._unbuilt.append(build)

    @property
    def completed_clusters(self) -> List[int]:
        """Heads whose clusters recovered their aggregate."""
        return sorted(h for h, s in self.states.items() if s.completed)


class IntraClusterExchange:
    """One execution of the share-exchange phase over all clusters.

    Parameters
    ----------
    stack:
        The radio network.
    clustering:
        Output of :class:`repro.core.clustering.ClusterFormation`.
    config:
        Protocol tunables.
    linksec:
        Link encryption facade (pairwise or EG scheme).
    aggregate:
        The additive aggregate being computed.
    readings:
        sensor id -> raw reading. Nodes without a reading (the base
        station) contribute identity components.
    field_:
        Prime field for the share algebra.
    participating_heads:
        When set, only these clusters run (localization subsets).
    round_id:
        RNG salt.
    """

    def __init__(
        self,
        stack: Transport,
        clustering: ClusteringResult,
        config: IcpdaConfig,
        linksec: LinkSecurity,
        aggregate: AdditiveAggregate,
        readings: Dict[int, float],
        field_: PrimeField,
        participating_heads: Optional[Set[int]] = None,
        round_id: int = 0,
    ) -> None:
        self._stack = stack
        self._clustering = clustering
        self._config = config
        self._linksec = linksec
        self._aggregate = aggregate
        self._readings = readings
        self._field = field_
        self._participating = participating_heads
        self._round_id = round_id
        self._rng = stack.sim.rng.stream(f"exchange.{round_id}")
        self.result = ExchangeResult()
        #: ``(node, listener)`` per overhear listener this phase attached,
        #: as the transport returned it (the protocol detaches them).
        self.listeners: List[Tuple[int, OverhearListener]] = []

        # Per-node bookkeeping of the event-driven (scalar) exchange.
        self._cluster_of: Dict[int, int] = {}
        # Per-cluster seed maps, computed once at window start: member id
        # -> seed and the full expected seed set. These are consulted on
        # every share/F-value/overhear packet, so rebuilding them per
        # packet would dominate the exchange hot path.
        self._seeds_of: Dict[int, Dict[int, int]] = {}
        self._expected_seeds: Dict[int, frozenset] = {}
        self._expected_origins: Dict[int, frozenset] = {}
        self._held_bundles: Dict[int, Dict[int, ShareBundle]] = {}
        # Two tables: a member's share to its head and its F-value are
        # both keyed (member, head).
        self._share_arq = StopAndWait(stack, base=1.0)
        self._fvalue_arq = StopAndWait(stack, base=1.0)
        self._fvalue_sent: Set[int] = set()
        self._witness_fvalues: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        # (head, sorted (seed, F-value) items) -> recovered cluster sums.
        self._recovered: Dict[tuple, Tuple[int, ...]] = {}

    # -- public API ------------------------------------------------------------

    def run(self) -> ExchangeResult:
        """Run the exchange window to completion and compile results.

        The census below is shared; the exchange itself runs as
        per-frame events (``engine="scalar"``, the golden-traced
        reference) or in-process
        (:class:`~repro.core.intracluster_batched.BatchedShareExchange`).
        """
        live = self._census()
        if self._config.engine == "batched":
            # Imported here: the engine builds on this module's types.
            from repro.core.intracluster_batched import BatchedShareExchange

            BatchedShareExchange(
                self._stack,
                self._config,
                self._linksec,
                self._aggregate,
                self._readings,
                self._field,
                self._rng,
                self._round_id,
            ).run(live, self.result)
        else:
            self._run_events(live)
        self._compile()
        return self.result

    def _census(self) -> List[ClusterExchangeState]:
        """Open a state per participating cluster; return the ones that
        may exchange (not aborted for member-list loss or a contested
        member), in census order."""
        cfg = self._config
        # Pass 1: per-cluster participant lists (the claim census over
        # them is taken vectorized below, so membership conflicts are
        # resolved symmetrically).
        candidates: List[Tuple[int, List[int]]] = []
        for cluster in self._clustering.clusters.values():
            if not cluster.active:
                continue
            if self._participating is not None and cluster.head not in self._participating:
                continue
            participants = sorted(cluster.informed_members)
            if len(participants) < cfg.k_min or len(participants) < cluster.size:
                # Someone missed the member list: the share matrix cannot
                # complete, so the cluster aborts up front. (Clusters
                # aborted here hold no claim on their members.)
                self.result.states[cluster.head] = ClusterExchangeState(
                    head=cluster.head,
                    participants=participants,
                    contributors=0,
                    aborted_reason="member_list_loss",
                )
                continue
            candidates.append((cluster.head, participants))

        # Pass 2: defense in depth — a member claimed by two clusters
        # would cross-contaminate both share matrices. The formation
        # layer prevents this; if it ever leaks through, *every* cluster
        # holding a contested member aborts (symmetric and independent of
        # cluster iteration order), rather than the first-iterated one
        # silently proceeding with the contested member. One np.unique
        # over the concatenated participant lists replaces the per-member
        # Python claim counting at 100k nodes.
        if candidates:
            all_claims = np.concatenate(
                [np.asarray(p, dtype=np.int64) for _, p in candidates]
            )
            uniq, counts = np.unique(all_claims, return_counts=True)
            contested = set(uniq[counts > 1].tolist())
        else:
            contested = set()
        live: List[ClusterExchangeState] = []
        for head, participants in candidates:
            if contested and any(m in contested for m in participants):
                self.result.states[head] = ClusterExchangeState(
                    head=head,
                    participants=participants,
                    contributors=0,
                    aborted_reason="membership_conflict",
                )
                continue
            contributors = sum(1 for m in participants if m in self._readings)
            state = self.result.states[head] = ClusterExchangeState(
                head=head,
                participants=participants,
                contributors=contributors,
            )
            live.append(state)
        return live

    # -- event-driven exchange ------------------------------------------------------

    def _run_events(self, live: List[ClusterExchangeState]) -> None:
        sim = self._stack.sim
        t0 = sim.now
        for state in live:
            seeds = {m: seed_for_node(m) for m in state.participants}
            self._seeds_of[state.head] = seeds
            self._expected_seeds[state.head] = frozenset(seeds.values())
            origins = frozenset(state.participants)
            for member in state.participants:
                self._cluster_of[member] = state.head
                self._expected_origins[member] = origins
                self._held_bundles[member] = {}
                self._witness_fvalues[member] = {}

        handlers = (
            (SHARE_KIND, self._on_share),
            (SHARE_RELAY_KIND, self._on_share_relay),
            (SHARE_ACK_KIND, self._on_share_ack),
            (FVALUE_KIND, self._on_fvalue),
            (FVALUE_ACK_KIND, self._on_fvalue_ack),
            (FSET_KIND, self._on_fset),
        )
        overhear = self._overhear_fvalue
        for node in self._stack.node_ids():
            for kind, handler in handlers:
                self._stack.register_handler(node, kind, handler)
            listener = self._stack.register_overhear(
                node, overhear, kinds=(FVALUE_KIND,)
            )
            self.listeners.append((node, listener))

        for state in live:
            for member in state.participants:
                delay = float(self._rng.uniform(0.1, WINDOW_EXCHANGE_S * 0.25))
                sim.schedule(delay, self._send_shares, args=(member, state))

        sim.run(until=t0 + WINDOW_EXCHANGE_S)

    # -- sending shares -----------------------------------------------------------

    def _send_shares(self, member: int, state: ClusterExchangeState) -> None:
        seeds = self._seeds_of[state.head]
        reading = self._readings.get(member)
        components = (
            self._aggregate.components(reading)
            if reading is not None
            else self._aggregate.identity()
        )
        bundles = generate_share_bundles(
            self._field, member, components, seeds, self._rng
        )
        self._accept_bundle(member, bundles[member])
        for recipient, bundle in bundles.items():
            if recipient == member:
                continue
            try:
                ciphertext = self._linksec.seal(member, recipient, list(bundle.values))
            except NoSharedKeyError:
                state.aborted_reason = "no_shared_key"
                self._stack.sim.trace.emit(
                    "exchange.abort",
                    f"cluster {state.head}: no key {member}->{recipient}",
                    head=state.head,
                )
                return
            self._dispatch_share(member, recipient, state.head, ciphertext)
        # Burst boundary: one member's whole share spray (m-1
        # frames) is a single burst — the bulk backend seals it in
        # one vectorized draw; per-frame backends no-op.
        self._stack.flush()

    def _dispatch_share(
        self, sender: int, recipient: int, head: int, ciphertext: Ciphertext
    ) -> None:
        """Send one encrypted share, directly or relayed via the head,
        under hop ARQ."""
        payload = {"origin": sender, "dst": recipient, "ct": ciphertext}
        if recipient in self._stack.neighbors(sender):
            frame = (sender, recipient, SHARE_KIND, payload)
            links: Tuple[Tuple[int, int], ...] = ((sender, recipient),)
        else:
            frame = (sender, head, SHARE_RELAY_KIND, payload)
            links = ((sender, head), (head, recipient))
        self._share_arq.send(sender, recipient, self._stack.send, frame)
        self.result.share_log.append(
            ShareTransmission(origin=sender, recipient=recipient, links=links)
        )

    # -- share reception ------------------------------------------------------------

    def _on_share(self, node: int, packet: Packet) -> None:
        if int(packet.payload["dst"]) != node:
            return
        origin = int(packet.payload["origin"])
        ciphertext: Ciphertext = packet.payload["ct"]
        if node not in self._expected_origins:
            return
        values = tuple(self._linksec.open(node, ciphertext))
        bundle = ShareBundle(
            origin=origin, eval_seed=seed_for_node(node), values=values
        )
        self._stack.send(
            node, packet.src, SHARE_ACK_KIND, {"origin": origin, "dst": node}
        )
        self._accept_bundle(node, bundle)

    def _on_share_relay(self, node: int, packet: Packet) -> None:
        recipient = int(packet.payload["dst"])
        # The head forwards ciphertext it cannot read.
        self._stack.send(node, recipient, SHARE_KIND, dict(packet.payload))

    def _on_share_ack(self, node: int, packet: Packet) -> None:
        origin = int(packet.payload["origin"])
        recipient = int(packet.payload["dst"])
        if origin == node:
            self._share_arq.ack(origin, recipient)
        else:
            # We relayed the share for `origin`; relay the ack back
            # so it stops retransmitting.
            self._stack.send(
                node, origin, SHARE_ACK_KIND, dict(packet.payload)
            )

    def _accept_bundle(self, node: int, bundle: ShareBundle) -> None:
        held = self._held_bundles.get(node)
        if held is None or bundle.origin in held:
            return
        held[bundle.origin] = bundle
        if set(held) == self._expected_origins[node]:
            self._assemble_and_publish(node)

    # -- F-value publication -----------------------------------------------------------

    def _assemble_and_publish(self, node: int) -> None:
        if node in self._fvalue_sent:
            return
        self._fvalue_sent.add(node)
        head = self._cluster_of[node]
        bundles = list(self._held_bundles[node].values())
        fvalue = sum_share_values(self._field, bundles)
        self._witness_fvalues[node][seed_for_node(node)] = fvalue
        self._maybe_recover_witness(node)
        self._publish_fvalue(node, head, fvalue)

    def _publish_fvalue(self, node: int, head: int, fvalue: Sequence[int]) -> None:
        payload = {
            "cluster": head,
            "seed": seed_for_node(node),
            "member": node,
            "f": list(fvalue),
        }
        if node != head:
            self._fvalue_arq.send(
                node, head, self._stack.broadcast, (node, FVALUE_KIND, payload)
            )
            return
        self._stack.broadcast(node, FVALUE_KIND, payload)
        self._store_fvalue_at_head(head, seed_for_node(node), tuple(fvalue))
        # The head's own F-value needs no ack; rebroadcast once for the
        # witnesses' benefit.
        self._stack.sim.schedule(
            ACK_TIMEOUT_S,
            self._rebroadcast,
            args=(node, FVALUE_KIND, payload),
        )

    def _on_fvalue(self, node: int, packet: Packet) -> None:
        head = int(packet.payload["cluster"])
        if node != head:
            return
        member = int(packet.payload["member"])
        seed = int(packet.payload["seed"])
        fvalue = tuple(int(v) for v in packet.payload["f"])
        self._stack.send(node, member, FVALUE_ACK_KIND, {"member": member})
        self._store_fvalue_at_head(head, seed, fvalue)

    def _on_fvalue_ack(self, node: int, packet: Packet) -> None:
        if int(packet.payload["member"]) == node:
            self._fvalue_arq.ack(node, packet.src)

    def _store_fvalue_at_head(
        self, head: int, seed: int, fvalue: Tuple[int, ...]
    ) -> None:
        state = self.result.states.get(head)
        if state is None or state.aborted_reason:
            return
        state.fvalues_at_head[seed] = fvalue
        expected = self._expected_seeds[head]
        if frozenset(state.fvalues_at_head) == expected and not state.completed:
            state.cluster_sums = self._recover(head, state.fvalues_at_head)
            state.completed = True
            self._stack.sim.trace.emit(
                "exchange.complete",
                f"cluster {head} recovered its aggregate",
                head=head,
                contributors=state.contributors,
            )
            if self._config.integrity_mode == "none":
                return  # no witnesses to equip in privacy-only mode
            # Publish the complete F-set (twice) so every member can
            # recover the cluster sum and serve as a witness. Members
            # verify entries they know first-hand, which makes a
            # tampered F-set self-incriminating.
            payload = {
                "cluster": head,
                "seeds": sorted(state.fvalues_at_head),
                "fs": [
                    list(state.fvalues_at_head[s])
                    for s in sorted(state.fvalues_at_head)
                ],
            }
            self._stack.broadcast(head, FSET_KIND, payload)
            self._stack.sim.schedule(
                0.3 + float(self._rng.uniform(0.0, 0.3)),
                self._rebroadcast,
                args=(head, FSET_KIND, payload),
            )

    def _rebroadcast(self, node: int, kind: str, payload: dict) -> None:
        """Repeat an earlier broadcast (F-value or F-set) for lossy links."""
        self._stack.broadcast(node, kind, payload)

    def _on_fset(self, node: int, packet: Packet) -> None:
        head = int(packet.payload["cluster"])
        if self._cluster_of.get(node) != head or node == head:
            return
        seeds = [int(s) for s in packet.payload["seeds"]]
        fs = [tuple(int(v) for v in f) for f in packet.payload["fs"]]
        known = self._witness_fvalues[node]
        conflict = False
        for seed, fvalue in zip(seeds, fs):
            mine = known.get(seed)
            if mine is not None and mine != fvalue:
                conflict = True
                self.result.fset_conflicts.append((node, head))
                self._stack.sim.trace.emit(
                    "exchange.fset_conflict",
                    f"member {node}: head {head} published a wrong F({seed})",
                    member=node,
                    head=head,
                    seed=seed,
                )
                break
        if conflict:
            return
        for seed, fvalue in zip(seeds, fs):
            known.setdefault(seed, fvalue)
        self._maybe_recover_witness(node)

    # -- witness overhearing -----------------------------------------------------------

    def _overhear_fvalue(self, node: int, packet: Packet) -> None:
        if packet.kind != FVALUE_KIND:
            return
        my_head = self._cluster_of.get(node)
        if my_head is None or int(packet.payload["cluster"]) != my_head:
            return
        seed = int(packet.payload["seed"])
        self._witness_fvalues[node][seed] = tuple(
            int(v) for v in packet.payload["f"]
        )
        self._maybe_recover_witness(node)

    def _maybe_recover_witness(self, node: int) -> None:
        head = self._cluster_of.get(node)
        if head is None or node in self.result.witness_sums:
            return
        state = self.result.states.get(head)
        if state is None:
            return
        expected = self._expected_seeds[head]
        known = self._witness_fvalues[node]
        if known.keys() >= expected:
            self.result.witness_sums[node] = self._recover(
                head, {s: known[s] for s in expected}
            )

    def _recover(
        self, head: int, fvalues: Dict[int, Tuple[int, ...]]
    ) -> Tuple[int, ...]:
        """``head``'s cluster sums from a full set of F-values, solved once
        per distinct set: in an honest round the head and every witness
        hold the same one, while a conflicting or tampered set gets a
        solve of its own."""
        key = (head, tuple(sorted(fvalues.items())))
        sums = self._recovered.get(key)
        if sums is None:
            sums = self._recovered[key] = recover_cluster_sums(self._field, fvalues)
        return sums

    # -- compile -----------------------------------------------------------

    def _compile(self) -> None:
        for state in self.result.states.values():
            if not state.completed and not state.aborted_reason:
                state.aborted_reason = "exchange_timeout"
