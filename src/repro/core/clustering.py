"""Distributed cluster formation (Phase II of iCPDA).

Randomized self-election in two waves, run over the simulated radio:

1. Every tree-attached node elects itself **cluster head** with
   probability ``p_c`` (the base station always is one) and broadcasts a
   ``head_announce`` at a jittered time inside the announce window.
2. Non-heads that heard announcements pick one head uniformly at random
   and unicast a ``join``. Nodes that heard *nothing* self-elect in a
   second wave so coverage degrades gracefully in sparse regions; nodes
   that still hear nothing stay unclustered (a measured loss factor).
3. Heads that gathered fewer than ``k_min - 1`` joiners **dissolve**:
   they broadcast a ``dissolve`` and, together with their joiners,
   re-join another heard (non-dissolved) head — the merge step that keeps
   dense networks from stranding singleton clusters.
4. Surviving heads accept at most ``k_max - 1`` joiners (bounding the
   O(m²) share traffic), broadcast the final ``member_list`` (twice, for
   loss robustness), and send a tiny ``census`` record up the tree —
   hop-acknowledged and retransmitted — so the base station knows how
   many participants to expect: the denominator of the ``Th``
   plausibility check.

Clusters still smaller than ``k_min`` after the merge are marked
inactive: the privacy algebra cannot protect their members, so they sit
the round out rather than leak.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.aggregation.tree import TreeBuildResult
from repro.core.arq import StopAndWait
from repro.core.config import IcpdaConfig
from repro.errors import ClusterFormationError
from repro.net.packet import Packet
from repro.net.transport import Transport

ANNOUNCE_KIND = "head_announce"
JOIN_KIND = "join"
JOIN_REJECT_KIND = "join_reject"
DISSOLVE_KIND = "dissolve"
MEMBER_LIST_KIND = "member_list"
CENSUS_KIND = "census"
CENSUS_ACK_KIND = "census_ack"


@dataclass
class Cluster:
    """One formed cluster, from the head's point of view.

    Attributes
    ----------
    head:
        Head node id (doubles as the cluster id).
    members:
        All members including the head, in join order.
    informed_members:
        Members that confirmed receiving the member list (only these can
        take part in the share exchange).
    active:
        True iff the cluster reached ``k_min`` and participates.
    """

    head: int
    members: List[int] = field(default_factory=list)
    informed_members: Set[int] = field(default_factory=set)
    active: bool = True

    @property
    def size(self) -> int:
        """Member count, head included."""
        return len(self.members)


@dataclass
class ClusteringResult:
    """Global outcome of cluster formation.

    Attributes
    ----------
    clusters:
        head id -> :class:`Cluster`.
    membership:
        node id -> head id, for every node that knows its cluster.
    unclustered:
        Tree-attached nodes that ended up in no cluster.
    census_at_bs:
        head id -> (size, active) records that actually reached the base
        station (lossy, like everything else).
    """

    clusters: Dict[int, Cluster] = field(default_factory=dict)
    membership: Dict[int, int] = field(default_factory=dict)
    unclustered: Set[int] = field(default_factory=set)
    census_at_bs: Dict[int, tuple] = field(default_factory=dict)

    @property
    def active_clusters(self) -> List[Cluster]:
        """Clusters big enough to run the privacy algebra."""
        return [c for c in self.clusters.values() if c.active]


class ClusterFormation:
    """One execution of the cluster-formation phase.

    Parameters
    ----------
    stack, tree:
        The radio network and the aggregation tree built in Phase I.
    config:
        Protocol tunables (``p_c``, ``k_min``, ``k_max``, windows).
    round_id:
        Salt for the election RNG so successive rounds re-cluster
        differently (the property the attacker-localization search and
        the DoS defence rely on).
    """

    def __init__(
        self,
        stack: Transport,
        tree: TreeBuildResult,
        config: IcpdaConfig,
        round_id: int = 0,
    ) -> None:
        self._stack = stack
        self._tree = tree
        self._config = config
        self._round_id = round_id
        self._rng = stack.sim.rng.stream(f"cluster.{round_id}")
        self._excluded = set(config.excluded_heads)
        self._heads: Set[int] = set()
        self._heard: Dict[int, List[int]] = {n: [] for n in tree.parents}
        self._joined: Dict[int, Optional[int]] = {n: None for n in tree.parents}
        self._join_queue: Dict[int, List[int]] = {}
        self._dissolved: Set[int] = set()
        self._heard_dissolves: Dict[int, Set[int]] = {n: set() for n in tree.parents}
        self._rejected_from: Dict[int, Set[int]] = {n: set() for n in tree.parents}
        self._merge_phase = False
        self._census_arq = StopAndWait(
            stack, config.ack_timeout_s, config.share_retries, base=1.5
        )
        self.result = ClusteringResult()

    def run(self) -> ClusteringResult:
        """Execute the full phase; returns the global clustering view.

        Raises
        ------
        ClusterFormationError
            If the tree is empty (nothing to cluster).
        """
        if not self._tree.parents:
            raise ClusterFormationError("cannot cluster an empty tree")
        sim = self._stack.sim
        cfg = self._config
        t0 = sim.now

        handlers = (
            (ANNOUNCE_KIND, self._on_announce),
            (JOIN_KIND, self._on_join),
            (JOIN_REJECT_KIND, self._on_join_reject),
            (DISSOLVE_KIND, self._on_dissolve),
            (MEMBER_LIST_KIND, self._on_member_list),
            (CENSUS_KIND, self._on_census),
            (CENSUS_ACK_KIND, self._on_census_ack),
        )
        for node in self._tree.parents:
            for kind, handler in handlers:
                self._stack.register_handler(node, kind, handler)

        # Wave 1: election + announce.
        bs = self._tree.root
        self._heads.add(bs)
        sim.schedule(0.0, self._announce, args=(bs,))
        for node in self._tree.parents:
            if node == bs:
                continue
            if self._rng.random() < self._election_probability(node) and (
                node not in self._excluded
            ):
                self._heads.add(node)
                delay = float(self._rng.uniform(0.05, cfg.window_announce_s * 0.8))
                sim.schedule(delay, self._announce, args=(node,))

        # Decision point: join or second-wave self-elect.
        sim.schedule_at(t0 + cfg.window_announce_s, self._wave2_decisions)
        # Late joiners toward wave-2 heads.
        sim.schedule_at(
            t0 + cfg.window_announce_s + cfg.window_join_s * 0.5,
            self._late_join_decisions,
        )
        # Undersized heads dissolve; their nodes re-join (merge wave).
        t_dissolve = t0 + cfg.window_announce_s + cfg.window_join_s
        sim.schedule_at(t_dissolve, self._dissolve_undersized)
        # Final membership close + member lists + census.
        rejoin_window = cfg.window_join_s * 0.7
        sim.schedule_at(t_dissolve + rejoin_window, self._close)

        sim.run(until=t_dissolve + rejoin_window + cfg.window_memberlist_s)
        self._finalize()
        return self.result

    # -- wave logic ---------------------------------------------------------

    def _election_probability(self, node: int) -> float:
        """Per-node head-election probability.

        Fixed mode uses ``p_c`` flat. Adaptive mode uses the
        density-adaptive rule ``1 / min(k, degree+1)``: one head per
        ``k`` nodes where neighborhoods can fill a ``k``-cluster, and
        proportionally more heads where they cannot — so sparse regions
        still assemble (small but >= k_min) clusters instead of leaving
        coverage holes. (Nodes know their degree from Phase-I HELLO
        traffic.)
        """
        cfg = self._config
        if cfg.election_mode == "fixed":
            return cfg.p_c
        neighborhood = self._stack.degree(node) + 1
        return 1.0 / max(1, min(cfg.adaptive_target_k, neighborhood))

    def _announce(self, node: int) -> None:
        self._stack.broadcast(node, ANNOUNCE_KIND, {"head": node})
        self._stack.sim.trace.emit(
            "cluster.announce", f"node {node} announces head", head=node
        )

    def _wave2_decisions(self) -> None:
        cfg = self._config
        sim = self._stack.sim
        for node in self._tree.parents:
            if node in self._heads or node == self._tree.root:
                continue
            if self._heard[node]:
                self._schedule_join(node, cfg.window_join_s * 0.4)
            elif node not in self._excluded:
                # Heard nothing: self-elect so sparse regions still form.
                self._heads.add(node)
                delay = float(self._rng.uniform(0.05, cfg.window_join_s * 0.3))
                sim.schedule(delay, self._announce, args=(node,))

    def _late_join_decisions(self) -> None:
        cfg = self._config
        for node in self._tree.parents:
            if node in self._heads or self._joined[node] is not None:
                continue
            if self._heard[node]:
                self._schedule_join(node, cfg.window_join_s * 0.3)
            else:
                self.result.unclustered.add(node)

    def _schedule_join(self, node: int, window: float) -> None:
        choices = self._heard[node]
        head = int(choices[self._rng.integers(0, len(choices))])
        self._joined[node] = head
        delay = float(self._rng.uniform(0.02, window))
        self._stack.sim.schedule(delay, self._send_join, args=(node, head))

    def _send_join(self, node: int, head: int) -> None:
        self._stack.send(node, head, JOIN_KIND, {"member": node})

    def _dissolve_undersized(self) -> None:
        """Merge wave: heads that cannot reach ``k_min`` dissolve and
        everyone involved re-joins a surviving head; oversubscribed heads
        bounce their excess joiners into the same re-join window."""
        cfg = self._config
        sim = self._stack.sim
        self._merge_phase = True
        for head in sorted(self._heads):
            if head == self._tree.root:
                continue  # the base station's cluster never dissolves
            size = 1 + len(self._join_queue.get(head, []))
            if size >= cfg.k_min:
                continue
            self._dissolved.add(head)
            self._heard_dissolves[head].add(head)
            self._stack.broadcast(head, DISSOLVE_KIND, {"head": head})
            delay = float(self._rng.uniform(0.1, 0.5))
            sim.schedule(delay, self._rejoin, args=(head,))
        if self._dissolved:
            sim.trace.emit(
                "cluster.dissolve",
                f"{len(self._dissolved)} undersized clusters dissolved",
                dissolved=len(self._dissolved),
            )

    def _rejoin(self, node: int) -> None:
        if self._joined.get(node) is not None:
            return  # already re-homed (e.g. via a merge-window announce)
        choices = [
            h
            for h in self._heard[node]
            if h not in self._heard_dissolves[node]
            and h not in self._rejected_from[node]
            and h != node
        ]
        if not choices:
            # Nowhere to go: self-elect (wave 3) and recruit other
            # leftovers of the merge window.
            if node in self._excluded:
                return
            if node not in self._heads or node in self._dissolved:
                self._heads.add(node)
                self._dissolved.discard(node)
                self._join_queue.pop(node, None)
                self._announce(node)
            return
        head = int(choices[self._rng.integers(0, len(choices))])
        self._joined[node] = head
        self._send_join(node, head)

    def _close(self) -> None:
        cfg = self._config
        sim = self._stack.sim
        for head in sorted(self._heads - self._dissolved):
            joiners = self._join_queue.get(head, [])[: cfg.k_max - 1]
            members = [head] + joiners
            cluster = Cluster(head=head, members=members)
            cluster.active = cluster.size >= cfg.k_min
            self.result.clusters[head] = cluster
            payload = {
                "head": head,
                "members": list(members),
                "active": cluster.active,
            }
            self._stack.broadcast(head, MEMBER_LIST_KIND, payload)
            sim.schedule(
                0.6 + float(self._rng.uniform(0.0, 0.4)),
                self._rebroadcast_list,
                args=(head, dict(payload)),
            )
            # Census toward the base station (hop-acknowledged).
            census = {"head": head, "size": cluster.size, "active": cluster.active}
            sim.schedule(
                1.2 + float(self._rng.uniform(0.0, 0.6)),
                self._send_census,
                args=(head, census),
            )
        sim.trace.emit(
            "cluster.closed",
            f"{len(self._heads - self._dissolved)} clusters closed",
            clusters=len(self._heads - self._dissolved),
        )

    def _rebroadcast_list(self, head: int, payload: dict) -> None:
        self._stack.broadcast(head, MEMBER_LIST_KIND, payload)

    def _send_census(self, head: int, census: dict) -> None:
        if head == self._tree.root:
            self._record_census(census)
            return
        self._send_census_hop(head, census)

    def _send_census_hop(self, sender: int, census: dict) -> None:
        parent = self._tree.parents.get(sender)
        if parent is None:
            return
        self._census_arq.send(
            sender,
            int(census["head"]),
            self._stack.send,
            (sender, parent, CENSUS_KIND, dict(census)),
        )

    # -- handlers -------------------------------------------------------------

    def _on_announce(self, node: int, packet: Packet) -> None:
        head = int(packet.payload["head"])
        if head == node or head in self._excluded:
            return
        if head not in self._heard[node]:
            self._heard[node].append(head)
        if not self._merge_phase:
            return
        # A re-announce during the merge window supersedes an
        # earlier dissolve, and leftovers join it directly.
        self._heard_dissolves[node].discard(head)
        if (
            node not in self._heads
            and self._joined.get(node) is None
            and head not in self._rejected_from[node]
        ):
            self._joined[node] = head
            delay = float(self._rng.uniform(0.05, 0.3))
            self._stack.sim.schedule(delay, self._send_join, args=(node, head))

    def _on_join(self, node: int, packet: Packet) -> None:
        member = int(packet.payload["member"])
        if node not in self._heads or node in self._dissolved:
            return  # stale join to a non-head or dissolved head
        queue = self._join_queue.setdefault(node, [])
        if member in queue:
            return
        if len(queue) >= self._config.k_max - 1:
            # Full: bounce immediately so the joiner can retry
            # elsewhere while the window is still open.
            self._stack.send(node, member, JOIN_REJECT_KIND, {"member": member})
            return
        queue.append(member)

    def _on_join_reject(self, node: int, packet: Packet) -> None:
        if int(packet.payload["member"]) != node or node in self._heads:
            return
        self._rejected_from[node].add(packet.src)
        if self._joined.get(node) == packet.src:
            self._joined[node] = None
            delay = float(self._rng.uniform(0.1, 0.5))
            self._stack.sim.schedule(delay, self._rejoin, args=(node,))

    def _on_dissolve(self, node: int, packet: Packet) -> None:
        head = int(packet.payload["head"])
        self._heard_dissolves[node].add(head)
        if self._joined.get(node) == head and node not in self._heads:
            self._joined[node] = None
            delay = float(self._rng.uniform(0.1, 0.5))
            self._stack.sim.schedule(delay, self._rejoin, args=(node,))

    def _on_member_list(self, node: int, packet: Packet) -> None:
        members = [int(m) for m in packet.payload["members"]]
        if node not in members:
            return
        head = int(packet.payload["head"])
        if node != head and self._joined.get(node) != head:
            # A stale queue entry at a head this node no longer
            # considers its own (double-join races). Accepting both
            # would corrupt two clusters' share algebra; declining
            # costs at most this cluster's round (it aborts when the
            # member's shares never arrive).
            return
        cluster = self.result.clusters.get(head)
        if cluster is not None:
            cluster.informed_members.add(node)
        self.result.membership[node] = head

    def _on_census(self, node: int, packet: Packet) -> None:
        head = int(packet.payload["head"])
        self._stack.send(node, packet.src, CENSUS_ACK_KIND, {"head": head})
        if not self._census_arq.take(node, head):
            return  # duplicate after a lost ack: re-acked above
        if node == self._tree.root:
            self._record_census(dict(packet.payload))
            return
        self._send_census_hop(node, dict(packet.payload))

    def _on_census_ack(self, node: int, packet: Packet) -> None:
        self._census_arq.ack(node, int(packet.payload["head"]))

    def _record_census(self, census: dict) -> None:
        self.result.census_at_bs[int(census["head"])] = (
            int(census["size"]),
            bool(census["active"]),
        )

    # -- finalize ---------------------------------------------------------------

    def _finalize(self) -> None:
        # Heads always know their own cluster.
        for head, cluster in self.result.clusters.items():
            cluster.informed_members.add(head)
            self.result.membership[head] = head
        clustered = set(self.result.membership)
        for node in self._tree.parents:
            if node not in clustered:
                self.result.unclustered.add(node)
        self.result.unclustered -= clustered
