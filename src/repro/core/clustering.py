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
   O(m²) share traffic) and broadcast the final ``member_list`` (twice,
   for loss robustness). Each head's ``(head, size, active)`` census
   record then travels up the tree so the base station knows how many
   participants to expect: the denominator of the ``Th`` plausibility
   check. As in the report wave's TAG slots, every tree node sends at
   most one ``census`` frame in its depth slot, deepest first, carrying
   every record it holds (concatenated, never summed: the base station
   keeps one record per cluster). A record that reaches a relay after
   its slot goes on at once in a frame of its own. Every frame is
   hop-acknowledged and retransmitted, and the census deadline grows
   with the tree's depth.

Clusters still smaller than ``k_min`` after the merge are marked
inactive: the privacy algebra cannot protect their members, so they sit
the round out rather than leak.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.aggregation.tree import TreeBuildResult
from repro.core.arq import StopAndWait
from repro.core.config import IcpdaConfig
from repro.errors import ClusterFormationError
from repro.net.packet import BROADCAST, Packet
from repro.net.transport import Transport

ANNOUNCE_KIND = "head_announce"
JOIN_KIND = "join"
JOIN_REJECT_KIND = "join_reject"
DISSOLVE_KIND = "dissolve"
MEMBER_LIST_KIND = "member_list"
CENSUS_KIND = "census"
CENSUS_ACK_KIND = "census_ack"

#: Virtual-time windows of the formation waves (seconds): wave-1 head
#: announcements and joins.
WINDOW_ANNOUNCE_S = 3.0
WINDOW_JOIN_S = 3.0
#: The census starts this long after close, once both member-list
#: broadcasts (at close and 0.6-1.0 s later) are on the air.
CENSUS_LEAD_S = 1.2
#: Per-depth census slot (seconds): a node at depth ``d`` sends
#: ``max_depth - d`` slots after the census starts, plus up to half a
#: slot of jitter, so its children's frames arrive before it sends.
CENSUS_SLOT_S = 0.2
#: Time the census stays open after the depth-1 slot, for records held
#: up by a lossy hop: one hop's full ARQ span (0.525 + 0.7 + 0.875 =
#: 2.1 s at base 1.5, plus up to 3 x 0.175 s of retry jitter) and slack.
CENSUS_GRACE_S = 3.0
#: Expected cluster size an "adaptive" election aims for.
ADAPTIVE_TARGET_K = 4


def formation_window_s(max_depth: int) -> float:
    """Length of the formation phase on a tree ``max_depth`` hops deep:
    the announce and join windows up to close, then the census slots."""
    return (
        WINDOW_ANNOUNCE_S
        + WINDOW_JOIN_S * 1.7
        + CENSUS_LEAD_S
        + max_depth * CENSUS_SLOT_S
        + CENSUS_GRACE_S
    )


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
        # node -> heads it heard dissolve / that rejected it; a node's
        # set is created by the first such frame it gets.
        self._heard_dissolves: Dict[int, Set[int]] = {}
        self._rejected_from: Dict[int, Set[int]] = {}
        self._merge_phase = False
        # Census frames near the root are long: their retries are
        # jittered (see StopAndWait).
        self._census_arq = StopAndWait(
            stack, base=1.5, rng=stack.sim.rng.stream(f"census_arq.{round_id}")
        )
        # node -> census records it holds for its slot; nodes whose
        # slot has passed forward late records at once.
        self._census_held: Dict[int, List[Tuple[int, int, bool]]] = {}
        self._census_slotted: Set[int] = set()
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
        for head, delay in self._elect():
            self._after(delay, self._announce, head)
        sim.run(until=self._schedule_waves(t0))
        self._finalize()
        return self.result

    # -- plumbing (the batched engine replaces these) -------------------------

    def _at(self, when: float, callback: Callable[[], None]) -> None:
        self._stack.sim.schedule_at(when, callback)

    def _after(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        self._stack.sim.schedule(delay, callback, args=args)

    def _send(
        self, src: int, dst: int, kind: str, payload: dict, delay: float = 0.0
    ) -> None:
        """Transmit one frame (``dst`` may be ``BROADCAST``), at once or
        ``delay`` seconds from now."""
        if delay:
            self._after(delay, self._send, src, dst, kind, payload)
        elif dst == BROADCAST:
            self._stack.broadcast(src, kind, payload)
        else:
            self._stack.send(src, dst, kind, payload)

    def _announce(self, node: int, delay: float = 0.0) -> None:
        """Broadcast ``node``'s head announcement, at once or after ``delay``."""
        if delay:
            self._after(delay, self._announce, node)
            return
        self._send(node, BROADCAST, ANNOUNCE_KIND, {"head": node})
        self._stack.sim.trace.emit(
            "cluster.announce", f"node {node} announces head", head=node
        )

    def _publish(self, cluster: Cluster) -> None:
        """Broadcast a closed cluster's member list (twice, for loss
        robustness); the head holds its census record for its slot."""
        head = cluster.head
        payload = {
            "head": head,
            "members": list(cluster.members),
            "active": cluster.active,
        }
        self._send(head, BROADCAST, MEMBER_LIST_KIND, payload)
        self._send(
            head,
            BROADCAST,
            MEMBER_LIST_KIND,
            dict(payload),
            0.6 + float(self._rng.uniform(0.0, 0.4)),
        )
        self._hold_census(head, [(head, cluster.size, cluster.active)])

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
        return 1.0 / max(1, min(ADAPTIVE_TARGET_K, neighborhood))

    def _elect(self) -> Iterator[Tuple[int, float]]:
        """Wave 1: the base station and every non-excluded node that wins
        its election draw become heads; yields each with its announce
        delay, in tree order after the base station (delay 0)."""
        bs = self._tree.root
        self._heads.add(bs)
        yield bs, 0.0
        for node in self._tree.parents:
            if node == bs:
                continue
            if self._rng.random() < self._election_probability(node) and (
                node not in self._excluded
            ):
                self._heads.add(node)
                yield node, float(self._rng.uniform(0.05, WINDOW_ANNOUNCE_S * 0.8))

    def _schedule_waves(self, t0: float) -> float:
        """Schedule the decision points after wave 1; returns the phase
        deadline."""
        # Decision point: join or second-wave self-elect.
        self._at(t0 + WINDOW_ANNOUNCE_S, self._wave2_decisions)
        # Late joiners toward wave-2 heads.
        self._at(t0 + WINDOW_ANNOUNCE_S + WINDOW_JOIN_S * 0.5, self._late_join_decisions)
        # Undersized heads dissolve; their nodes re-join (merge wave).
        t_dissolve = t0 + WINDOW_ANNOUNCE_S + WINDOW_JOIN_S
        self._at(t_dissolve, self._dissolve_undersized)
        # Final membership close + member lists + census.
        self._at(t_dissolve + WINDOW_JOIN_S * 0.7, self._close)
        return t0 + formation_window_s(self._tree.max_depth())

    def _wave2_decisions(self) -> None:
        for node in self._tree.parents:
            if node in self._heads or node == self._tree.root:
                continue
            if self._heard[node]:
                self._schedule_join(node, WINDOW_JOIN_S * 0.4)
            elif node not in self._excluded:
                # Heard nothing: self-elect so sparse regions still form.
                self._heads.add(node)
                self._announce(node, float(self._rng.uniform(0.05, WINDOW_JOIN_S * 0.3)))

    def _late_join_decisions(self) -> None:
        for node in self._tree.parents:
            if node in self._heads or self._joined[node] is not None:
                continue
            if self._heard[node]:
                self._schedule_join(node, WINDOW_JOIN_S * 0.3)
            else:
                self.result.unclustered.add(node)

    def _schedule_join(self, node: int, window: float) -> None:
        choices = self._heard[node]
        head = int(choices[self._rng.integers(0, len(choices))])
        self._joined[node] = head
        self._send_join(node, head, float(self._rng.uniform(0.02, window)))

    def _send_join(self, node: int, head: int, delay: float = 0.0) -> None:
        self._send(node, head, JOIN_KIND, {"member": node}, delay)

    def _dissolve_undersized(self) -> None:
        """Merge wave: heads that cannot reach ``k_min`` dissolve and
        everyone involved re-joins a surviving head; oversubscribed heads
        bounce their excess joiners into the same re-join window."""
        self._merge_phase = True
        for head in sorted(self._heads):
            if head == self._tree.root:
                continue  # the base station's cluster never dissolves
            if 1 + len(self._join_queue.get(head, ())) >= self._config.k_min:
                continue
            self._dissolved.add(head)
            self._heard_dissolves.setdefault(head, set()).add(head)
            self._send(head, BROADCAST, DISSOLVE_KIND, {"head": head})
            self._after(float(self._rng.uniform(0.1, 0.5)), self._rejoin, head)
        if self._dissolved:
            self._stack.sim.trace.emit(
                "cluster.dissolve",
                f"{len(self._dissolved)} undersized clusters dissolved",
                dissolved=len(self._dissolved),
            )

    def _rejoin(self, node: int) -> None:
        if self._joined.get(node) is not None:
            return  # already re-homed (e.g. via a merge-window announce)
        if node in self._heads and node not in self._dissolved:
            # A second re-join timer (one per dissolve or reject it
            # heard) fired after this node self-elected: it heads its
            # own cluster now and must not join another.
            return
        dissolved = self._heard_dissolves.get(node, ())
        rejected = self._rejected_from.get(node, ())
        choices = [
            h
            for h in self._heard[node]
            if h not in dissolved and h not in rejected and h != node
        ]
        if not choices:
            # Nowhere to go: self-elect (wave 3) and recruit other
            # leftovers of the merge window.
            if node in self._excluded:
                return
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
        closed = sorted(self._heads - self._dissolved)
        for head in closed:
            joiners = self._join_queue.get(head, [])[: cfg.k_max - 1]
            cluster = Cluster(head=head, members=[head] + joiners)
            cluster.active = cluster.size >= cfg.k_min
            self.result.clusters[head] = cluster
            self._publish(cluster)
        self._stack.sim.trace.emit(
            "cluster.closed",
            f"{len(closed)} clusters closed",
            clusters=len(closed),
        )
        self._schedule_census()

    def _census_slots(self) -> Iterator[Tuple[int, float]]:
        """Every tree node but the root with its census send delay after
        close: ``CENSUS_LEAD_S``, one slot per level below it, and up to
        half a slot of jitter (drawn in one batch, in tree order)."""
        tree = self._tree
        nodes = [node for node in tree.parents if node != tree.root]
        max_depth = tree.max_depth()
        jitter = self._rng.uniform(0.0, CENSUS_SLOT_S * 0.5, size=len(nodes))
        for node, extra in zip(nodes, jitter.tolist()):
            levels = max_depth - tree.depths[node]
            yield node, CENSUS_LEAD_S + levels * CENSUS_SLOT_S + extra

    def _schedule_census(self) -> None:
        for node, delay in self._census_slots():
            self._after(delay, self._census_slot, node)

    def _census_slot(self, node: int) -> None:
        """``node``'s slot: send every record it holds in one frame."""
        self._census_slotted.add(node)
        records = self._census_held.pop(node, None)
        if records:
            self._send_census(node, records)

    def _hold_census(self, node: int, records: List[Tuple[int, int, bool]]) -> None:
        """``node`` takes new census records: the base station counts
        them, a relay past its slot forwards them at once, any other
        relay keeps them for its slot."""
        if node == self._tree.root:
            for head, size, active in records:
                self.result.census_at_bs[head] = (size, active)
        elif node in self._census_slotted:
            self._send_census(node, records)
        else:
            self._census_held.setdefault(node, []).extend(records)

    def _send_census(self, sender: int, records: List[Tuple[int, int, bool]]) -> None:
        """One hop-acknowledged census frame; its ARQ key is its first
        record's head (a relay sends each record once)."""
        parent = self._tree.parents.get(sender)
        if parent is None:
            return
        self._census_arq.send(
            sender,
            records[0][0],
            self._stack.send,
            (sender, parent, CENSUS_KIND, {"records": records}),
        )

    # -- handlers: unpack a frame, then decide --------------------------------

    def _on_announce(self, node: int, packet: Packet) -> None:
        self._hear_announce(node, int(packet.payload["head"]))

    def _on_join(self, node: int, packet: Packet) -> None:
        self._take_join(node, int(packet.payload["member"]))

    def _on_join_reject(self, node: int, packet: Packet) -> None:
        if int(packet.payload["member"]) == node:
            self._take_reject(node, packet.src)

    def _on_dissolve(self, node: int, packet: Packet) -> None:
        self._hear_dissolve(node, int(packet.payload["head"]))

    def _on_member_list(self, node: int, packet: Packet) -> None:
        if node not in packet.payload["members"]:
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
        records = [
            (int(head), int(size), bool(active))
            for head, size, active in packet.payload["records"]
        ]
        self._stack.send(node, packet.src, CENSUS_ACK_KIND, {"head": records[0][0]})
        # Every copy is acked above (the lost frame may have been the
        # ack); each record is taken once, by head id.
        fresh = [r for r in records if self._census_arq.take(node, r[0])]
        if fresh:
            self._hold_census(node, fresh)

    def _on_census_ack(self, node: int, packet: Packet) -> None:
        self._census_arq.ack(node, int(packet.payload["head"]))

    # -- decisions: ``node`` received a frame about ``head``/``member`` -------

    def _hear_announce(self, node: int, head: int) -> None:
        if head == node or head in self._excluded:
            return
        heard = self._heard[node]
        if head not in heard:
            heard.append(head)
        if not self._merge_phase:
            return
        # A re-announce during the merge window supersedes an
        # earlier dissolve, and leftovers join it directly.
        dissolved = self._heard_dissolves.get(node)
        if dissolved:
            dissolved.discard(head)
        if (
            node not in self._heads
            and self._joined.get(node) is None
            and head not in self._rejected_from.get(node, ())
        ):
            self._joined[node] = head
            self._send_join(node, head, float(self._rng.uniform(0.05, 0.3)))

    def _take_join(self, node: int, member: int) -> None:
        if node not in self._heads or node in self._dissolved:
            return  # stale join to a non-head or dissolved head
        queue = self._join_queue.setdefault(node, [])
        if member in queue:
            return
        if len(queue) >= self._config.k_max - 1:
            # Full: bounce immediately so the joiner can retry
            # elsewhere while the window is still open.
            self._send(node, member, JOIN_REJECT_KIND, {"member": member})
            return
        queue.append(member)

    def _take_reject(self, node: int, head: int) -> None:
        if node in self._heads:
            return
        self._rejected_from.setdefault(node, set()).add(head)
        if self._joined.get(node) == head:
            self._joined[node] = None
            self._after(float(self._rng.uniform(0.1, 0.5)), self._rejoin, node)

    def _hear_dissolve(self, node: int, head: int) -> None:
        self._heard_dissolves.setdefault(node, set()).add(head)
        if self._joined.get(node) == head and node not in self._heads:
            self._joined[node] = None
            self._after(float(self._rng.uniform(0.1, 0.5)), self._rejoin, node)

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
