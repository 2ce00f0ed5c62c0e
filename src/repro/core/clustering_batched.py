"""Batched cluster formation — Phase II of ``engine="batched"``.

Runs the full election / join / dissolve / merge / close cascade of
:class:`repro.core.clustering.ClusterFormation` **in-process**, over all
nodes at once, instead of as per-frame simulator events: wave-1
elections are drawn in one sweep, the heard lists are built in a single
announce-time-ordered pass over the transport's (spatial-grid derived)
adjacency, and the remaining JOIN/reject/dissolve/rejoin cascade is
resolved on a tiny in-engine event heap. The frames the cascade would
have put on the air are then *replayed* through the Transport seam in
coarse time buckets, so byte counters, the energy ledger, and the bulk
transports' macro-event statistics stay truthful — at a tiny fraction
of the scalar engine's event count.

Determinism / equality contract (documented in docs/PERF.md):

* The engine assumes a **reliable control plane**: every control frame
  is delivered exactly once, with nominal one-hop latency :data:`EPS`.
* It consumes the *same* RNG stream (``cluster.{round_id}``) with the
  same draw kinds in the same chronological order as the scalar engine.
  On a lossless transport whose hop latency matches :data:`EPS`
  (``tests/net/loopback.py``), clusters, membership, census and
  unclustered sets are **equal** to the scalar engine's.
* On lossy transports (des/fluid) the scalar outcome depends on which
  frames die; the batched engine assumes none do. There the contract
  weakens to seeded determinism: same seeds -> same clusters.
* Byte accounting diverges from scalar exactly where loss would have
  mattered: no census ARQ retransmissions are replayed, and no frame is
  ever dropped.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.aggregation.tree import TreeBuildResult
from repro.core.clustering import (
    ANNOUNCE_KIND,
    CENSUS_ACK_KIND,
    CENSUS_KIND,
    DISSOLVE_KIND,
    JOIN_KIND,
    JOIN_REJECT_KIND,
    MEMBER_LIST_KIND,
    ADAPTIVE_TARGET_K,
    WINDOW_ANNOUNCE_S,
    WINDOW_JOIN_S,
    WINDOW_MEMBERLIST_S,
    Cluster,
    ClusteringResult,
)
from repro.core.config import IcpdaConfig
from repro.core.replay import EPS, FrameReplay, Frames
from repro.errors import ClusterFormationError
from repro.net.packet import BROADCAST, HEADER_BYTES
from repro.net.transport import Transport

_INT = 4  # wire size of one small-int payload field
_BOOL = 1  # wire size of one bool payload field

# In-engine event codes (heap entries are (time, seq, code, a, b)).
_E_WAVE2 = 0
_E_LATE = 1
_E_DISSOLVE = 2
_E_CLOSE = 3
_E_ANNOUNCE = 4  # deliver a wave-2/merge announce broadcast
_E_JOIN_ARRIVE = 5
_E_REJECT_ARRIVE = 6
_E_DISSOLVE_DELIVER = 7
_E_REJOIN = 8


class BatchedClusterFormation:
    """Drop-in replacement for ``ClusterFormation`` (same constructor,
    same ``run()`` -> :class:`ClusteringResult` API), selected by
    ``IcpdaConfig.engine == "batched"``."""

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
        self._heard_dissolves: Dict[int, Set[int]] = {}
        self._rejected_from: Dict[int, Set[int]] = {}
        self._merge_phase = False
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        # Flat frames go straight to the replay; census chains are kept
        # as head ids per replay bucket and expanded at emission time by
        # walking the parent chain (a 100k round relays ~1M+ census hops
        # — materializing each as a frame would dominate the engine's
        # memory footprint).
        self._replay: Optional[FrameReplay] = None
        self._census_chains: Dict[int, List[int]] = {}
        self.result = ClusteringResult()

    # -- public API -----------------------------------------------------------

    def run(self) -> ClusteringResult:
        """Execute the phase; same contract as ``ClusterFormation.run``.

        Raises
        ------
        ClusterFormationError
            If the tree is empty (nothing to cluster).
        """
        if not self._tree.parents:
            raise ClusterFormationError("cannot cluster an empty tree")
        sim = self._stack.sim
        t0 = sim.now
        self._replay = FrameReplay(self._stack, t0, expand=self._expand_census)

        # Wave 1: election draws in tree order (stream parity with the
        # scalar engine), then every heard list in one announce-time-
        # ordered sweep over the adjacency. Wave-1 announces carry no
        # merge semantics, so delivery order only fixes list order.
        bs = self._tree.root
        self._heads.add(bs)
        announce_order: List[Tuple[float, int]] = [(t0, bs)]
        self._replay.record(t0, bs, BROADCAST, ANNOUNCE_KIND, HEADER_BYTES + _INT)
        for node in self._tree.parents:
            if node == bs:
                continue
            if self._rng.random() < self._election_probability(node) and (
                node not in self._excluded
            ):
                self._heads.add(node)
                at = t0 + float(self._rng.uniform(0.05, WINDOW_ANNOUNCE_S * 0.8))
                announce_order.append((at, node))
                self._replay.record(
                    at, node, BROADCAST, ANNOUNCE_KIND, HEADER_BYTES + _INT
                )
        announce_order.sort()
        heard = self._heard
        for _at, head in announce_order:
            for nbr in self._stack.neighbors(head):
                lst = heard.get(nbr)
                if lst is not None:
                    lst.append(head)

        t_wave2 = t0 + WINDOW_ANNOUNCE_S
        t_dissolve = t_wave2 + WINDOW_JOIN_S
        t_close = t_dissolve + WINDOW_JOIN_S * 0.7
        t_end = t_close + WINDOW_MEMBERLIST_S
        self._push(t_wave2, _E_WAVE2, 0, 0)
        self._push(t_wave2 + WINDOW_JOIN_S * 0.5, _E_LATE, 0, 0)
        self._push(t_dissolve, _E_DISSOLVE, 0, 0)
        self._push(t_close, _E_CLOSE, 0, 0)
        self._drain(t_end)
        self._finalize()

        # Replay the cascade's frames through the transport seam and
        # advance the clock to the same phase deadline as scalar.
        self._replay.schedule(self._census_chains)
        sim.run(until=t_end)
        self._release()
        return self.result

    # -- in-engine event loop -------------------------------------------------

    def _push(self, at: float, code: int, a: int, b: int) -> None:
        heapq.heappush(self._heap, (at, next(self._seq), code, a, b))

    def _drain(self, t_end: float) -> None:
        heap = self._heap
        while heap:
            at, _seq, code, a, b = heapq.heappop(heap)
            if at > t_end:
                break  # past the phase deadline, like the scalar run()
            if code == _E_JOIN_ARRIVE:
                self._join_arrive(at, a, b)
            elif code == _E_ANNOUNCE:
                self._announce_deliver(at, a)
            elif code == _E_REJOIN:
                self._rejoin(at, a)
            elif code == _E_DISSOLVE_DELIVER:
                self._dissolve_deliver(at, a)
            elif code == _E_REJECT_ARRIVE:
                self._reject_arrive(at, a, b)
            elif code == _E_WAVE2:
                self._wave2(at)
            elif code == _E_LATE:
                self._late(at)
            elif code == _E_DISSOLVE:
                self._dissolve(at)
            else:
                self._close(at)

    def _election_probability(self, node: int) -> float:
        cfg = self._config
        if cfg.election_mode == "fixed":
            return cfg.p_c
        neighborhood = self._stack.degree(node) + 1
        return 1.0 / max(1, min(ADAPTIVE_TARGET_K, neighborhood))

    def _hd(self, node: int) -> Set[int]:
        got = self._heard_dissolves.get(node)
        if got is None:
            got = self._heard_dissolves[node] = set()
        return got

    # -- wave logic (scalar-equivalent, same draw order) ----------------------

    def _wave2(self, at: float) -> None:
        for node in self._tree.parents:
            if node in self._heads or node == self._tree.root:
                continue
            if self._heard[node]:
                self._join_decide(at, node, WINDOW_JOIN_S * 0.4)
            elif node not in self._excluded:
                # Heard nothing: self-elect so sparse regions still form.
                self._heads.add(node)
                t = at + float(self._rng.uniform(0.05, WINDOW_JOIN_S * 0.3))
                self._replay.record(
                    t, node, BROADCAST, ANNOUNCE_KIND, HEADER_BYTES + _INT
                )
                self._push(t + EPS, _E_ANNOUNCE, node, 0)

    def _late(self, at: float) -> None:
        for node in self._tree.parents:
            if node in self._heads or self._joined[node] is not None:
                continue
            if self._heard[node]:
                self._join_decide(at, node, WINDOW_JOIN_S * 0.3)
            else:
                self.result.unclustered.add(node)

    def _join_decide(self, at: float, node: int, window: float) -> None:
        choices = self._heard[node]
        head = int(choices[self._rng.integers(0, len(choices))])
        self._joined[node] = head
        t = at + float(self._rng.uniform(0.02, window))
        self._replay.record(t, node, head, JOIN_KIND, HEADER_BYTES + _INT)
        self._push(t + EPS, _E_JOIN_ARRIVE, node, head)

    def _announce_deliver(self, at: float, head: int) -> None:
        joined = self._joined
        for node in self._stack.neighbors(head):
            lst = self._heard.get(node)
            if lst is None:
                continue  # not tree-attached: no clustering state
            if head not in lst:
                lst.append(head)
            if not self._merge_phase:
                continue
            # A re-announce during the merge window supersedes an
            # earlier dissolve, and leftovers join it directly.
            self._hd(node).discard(head)
            if (
                node not in self._heads
                and joined.get(node) is None
                and head not in self._rejected_from.get(node, ())
            ):
                joined[node] = head
                t = at + float(self._rng.uniform(0.05, 0.3))
                self._replay.record(t, node, head, JOIN_KIND, HEADER_BYTES + _INT)
                self._push(t + EPS, _E_JOIN_ARRIVE, node, head)

    def _join_arrive(self, at: float, member: int, head: int) -> None:
        if head not in self._heads or head in self._dissolved:
            return  # stale join to a non-head or dissolved head
        queue = self._join_queue.setdefault(head, [])
        if member in queue:
            return
        if len(queue) >= self._config.k_max - 1:
            # Full: bounce immediately so the joiner can retry elsewhere.
            self._replay.record(
                at, head, member, JOIN_REJECT_KIND, HEADER_BYTES + _INT
            )
            self._push(at + EPS, _E_REJECT_ARRIVE, member, head)
            return
        queue.append(member)

    def _reject_arrive(self, at: float, member: int, head: int) -> None:
        if member in self._heads:
            return
        self._rejected_from.setdefault(member, set()).add(head)
        if self._joined.get(member) == head:
            self._joined[member] = None
            self._push(at + float(self._rng.uniform(0.1, 0.5)), _E_REJOIN, member, 0)

    def _dissolve(self, at: float) -> None:
        cfg = self._config
        self._merge_phase = True
        for head in sorted(self._heads):
            if head == self._tree.root:
                continue  # the base station's cluster never dissolves
            if 1 + len(self._join_queue.get(head, ())) >= cfg.k_min:
                continue
            self._dissolved.add(head)
            self._hd(head).add(head)
            self._replay.record(at, head, BROADCAST, DISSOLVE_KIND, HEADER_BYTES + _INT)
            self._push(at + EPS, _E_DISSOLVE_DELIVER, head, 0)
            self._push(at + float(self._rng.uniform(0.1, 0.5)), _E_REJOIN, head, 0)
        if self._dissolved:
            self._stack.sim.trace.emit(
                "cluster.dissolve",
                f"{len(self._dissolved)} undersized clusters dissolved",
                dissolved=len(self._dissolved),
            )

    def _dissolve_deliver(self, at: float, head: int) -> None:
        joined = self._joined
        for node in self._stack.neighbors(head):
            if node not in joined:
                continue  # not tree-attached
            self._hd(node).add(head)
            if joined.get(node) == head and node not in self._heads:
                joined[node] = None
                self._push(
                    at + float(self._rng.uniform(0.1, 0.5)), _E_REJOIN, node, 0
                )

    def _rejoin(self, at: float, node: int) -> None:
        if self._joined.get(node) is not None:
            return  # already re-homed (e.g. via a merge-window announce)
        hd = self._heard_dissolves.get(node, ())
        rejected = self._rejected_from.get(node, ())
        choices = [
            h
            for h in self._heard[node]
            if h not in hd and h not in rejected and h != node
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
                self._replay.record(
                    at, node, BROADCAST, ANNOUNCE_KIND, HEADER_BYTES + _INT
                )
                self._push(at + EPS, _E_ANNOUNCE, node, 0)
            return
        head = int(choices[self._rng.integers(0, len(choices))])
        self._joined[node] = head
        self._replay.record(at, node, head, JOIN_KIND, HEADER_BYTES + _INT)
        self._push(at + EPS, _E_JOIN_ARRIVE, node, head)

    def _close(self, at: float) -> None:
        cfg = self._config
        root = self._tree.root
        for head in sorted(self._heads - self._dissolved):
            joiners = self._join_queue.get(head, [])[: cfg.k_max - 1]
            members = [head] + joiners
            cluster = Cluster(head=head, members=members)
            cluster.active = cluster.size >= cfg.k_min
            self.result.clusters[head] = cluster
            list_size = HEADER_BYTES + _INT + _INT * len(members) + _BOOL
            self._replay.record(at, head, BROADCAST, MEMBER_LIST_KIND, list_size)
            self._replay.record(
                at + 0.6 + float(self._rng.uniform(0.0, 0.4)),
                head,
                BROADCAST,
                MEMBER_LIST_KIND,
                list_size,
            )
            # Reliable control plane: every queued member still has
            # joined == head at close (a reject would have removed it
            # from the queue, a dissolve would have removed the head),
            # so the member list informs exactly the members.
            for member in members:
                cluster.informed_members.add(member)
                self.result.membership[member] = head
            census_at = at + 1.2 + float(self._rng.uniform(0.0, 0.6))
            self.result.census_at_bs[head] = (cluster.size, cluster.active)
            if head != root:
                self._census_chains.setdefault(
                    self._replay.bucket_of(census_at), []
                ).append(head)
        self._stack.sim.trace.emit(
            "cluster.closed",
            f"{len(self._heads - self._dissolved)} clusters closed",
            clusters=len(self._heads - self._dissolved),
        )

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

    # -- frame replay ---------------------------------------------------------

    def _expand_census(self, bucket: int, frames: Callable[[str], Frames]) -> None:
        """Walk the census chains due in ``bucket`` up the tree: one
        census frame and one ack per hop."""
        chains = self._census_chains.pop(bucket, ())
        if not chains:
            return
        parents = self._tree.parents
        census = frames(CENSUS_KIND)
        acks = frames(CENSUS_ACK_KIND)
        census_size = HEADER_BYTES + 2 * _INT + _BOOL
        ack_size = HEADER_BYTES + _INT
        for head in chains:
            node = head
            parent = parents.get(node)
            while parent is not None:
                census[0].append(node)
                census[1].append(parent)
                census[2].append(census_size)
                acks[0].append(parent)
                acks[1].append(node)
                acks[2].append(ack_size)
                node = parent
                parent = parents.get(node)

    def _release(self) -> None:
        """Drop the cascade's working state so the engine object does not
        pin a 100k round's heard lists through the later phases."""
        self._heard = {}
        self._joined = {}
        self._join_queue = {}
        self._heard_dissolves = {}
        self._rejected_from = {}
        self._heap = []
        self._replay = None
        self._census_chains = {}
