"""Batched cluster formation — Phase II of ``engine="batched"``.

:class:`BatchedClusterFormation` is the scalar
:class:`repro.core.clustering.ClusterFormation` with its event plumbing
replaced: it inherits the phase state and every election, join, reject,
dissolve, re-join, close and finalize decision, and runs them
**in-process** on an :class:`~repro.core.replay.EventHeap` instead of as
per-frame simulator events. Wave-1 heard lists are built in one
announce-time-ordered sweep over the transport's adjacency; a sent frame
is recorded into a :class:`~repro.core.replay.FrameReplay` and its
lossless delivery pushed :data:`EPS` later, where it calls the scalar
decision method once per receiver. The recorded frames are then
*replayed* through the Transport seam in coarse time buckets, so byte
counters, the energy ledger, and the bulk transports' macro-event
statistics stay truthful — at a tiny fraction of the scalar engine's
event count.

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
  mattered: no census ARQ retransmissions or late census forwards are
  replayed, and no frame is ever dropped.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.core.clustering import (
    ANNOUNCE_KIND,
    CENSUS_ACK_KIND,
    CENSUS_KIND,
    DISSOLVE_KIND,
    JOIN_KIND,
    JOIN_REJECT_KIND,
    MEMBER_LIST_KIND,
    Cluster,
    ClusterFormation,
    ClusteringResult,
)
from repro.core.replay import EPS, EventHeap, FrameReplay, Frames
from repro.errors import ClusterFormationError
from repro.net.packet import BROADCAST, HEADER_BYTES

_INT = 4  # wire size of one small-int payload field
_BOOL = 1  # wire size of one bool payload field
#: Wire size of an announce, join, reject or dissolve (one node id).
_FRAME = HEADER_BYTES + _INT
#: Wire size of one census record: head id, size, active flag.
_RECORD = 2 * _INT + _BOOL


class BatchedClusterFormation(ClusterFormation):
    """Drop-in replacement for ``ClusterFormation`` (same constructor,
    same ``run()`` -> :class:`ClusteringResult` API), selected by
    ``IcpdaConfig.engine == "batched"``.

    Inherits all phase state and decisions from the scalar engine; only
    the event plumbing is replaced.
    """

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
        self._events = EventHeap(t0)
        self._replay = FrameReplay(self._stack, t0, expand=self._expand_census)
        # Census frames are kept as (relay, record count) per replay
        # bucket and expanded into frame and ack rows at emission time.
        self._census_frames: Dict[int, List[Tuple[int, int]]] = {}
        self._decisions: Dict[str, Callable[[int, int], None]] = {
            ANNOUNCE_KIND: self._hear_announce,
            JOIN_KIND: self._take_join,
            JOIN_REJECT_KIND: self._take_reject,
            DISSOLVE_KIND: self._hear_dissolve,
        }

        # Wave 1: election draws in tree order, then every heard list in
        # one announce-time-ordered sweep over the adjacency. Wave-1
        # announces carry no merge semantics, so delivery order only
        # fixes list order.
        announce_order: List[Tuple[float, int]] = []
        for head, delay in self._elect():
            at = t0 + delay
            announce_order.append((at, head))
            self._replay.record(at, head, BROADCAST, ANNOUNCE_KIND, _FRAME)
        announce_order.sort()
        heard = self._heard
        for _at, head in announce_order:
            if head in self._excluded:
                continue  # only the base station; _hear_announce ignores it
            for nbr in self._stack.neighbors(head):
                lst = heard.get(nbr)
                if lst is not None:
                    lst.append(head)

        t_end = self._schedule_waves(t0)
        self._events.run(until=t_end)
        self._finalize()

        # Replay the cascade's frames through the transport seam and
        # advance the clock to the same phase deadline as scalar.
        self._replay.schedule(self._census_frames)
        sim.run(until=t_end)
        self._release()
        return self.result

    # -- plumbing ---------------------------------------------------------------

    def _at(self, when: float, callback: Callable[[], None]) -> None:
        self._events.push(when, callback)

    def _after(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        self._events.push(self._events.now + delay, callback, *args)

    def _send(
        self, src: int, dst: int, kind: str, payload: dict, delay: float = 0.0
    ) -> None:
        # Recorded now at its send instant (the replay emits rows in
        # recording order); delivered EPS later, reliably.
        at = self._events.now + delay
        self._replay.record(at, src, dst, kind, _FRAME)
        decide = self._decisions[kind]
        if dst == BROADCAST:
            self._events.push(at + EPS, self._deliver, src, decide)
        else:
            self._events.push(at + EPS, decide, dst, src)

    def _announce(self, node: int, delay: float = 0.0) -> None:
        # Not through a timer, which would record the frame when it
        # fires (out of recording order), and no per-announce trace.
        self._send(node, BROADCAST, ANNOUNCE_KIND, {"head": node}, delay)

    def _deliver(self, src: int, decide: Callable[[int, int], None]) -> None:
        """Deliver a broadcast from ``src``: ``decide(receiver, src)``
        at every neighbour, in adjacency order."""
        joined = self._joined
        for node in self._stack.neighbors(src):
            if node in joined:  # tree-attached: it runs the phase
                decide(node, src)

    def _publish(self, cluster: Cluster) -> None:
        at = self._events.now
        head = cluster.head
        list_size = HEADER_BYTES + _INT + _INT * cluster.size + _BOOL
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
        for member in cluster.members:
            cluster.informed_members.add(member)
            self.result.membership[member] = head
        self.result.census_at_bs[head] = (cluster.size, cluster.active)

    def _schedule_census(self) -> None:
        """Reliable control plane: every record reaches its relay before
        the relay's slot, so each node sends one frame in its slot with
        the records of every closed head in its subtree, and nothing is
        late."""
        tree = self._tree
        root, parents = tree.root, tree.parents
        counts = dict.fromkeys((h for h in self.result.clusters if h != root), 1)
        # Deepest first: a node's count is complete before it moves up.
        for node in sorted(parents, key=tree.depths.__getitem__, reverse=True):
            count = counts.get(node)
            parent = parents[node]
            if count and parent is not None and parent != root:
                counts[parent] = counts.get(parent, 0) + count
        now = self._events.now
        for node, delay in self._census_slots():
            count = counts.get(node)
            if count:
                self._census_frames.setdefault(
                    self._replay.bucket_of(now + delay), []
                ).append((node, count))

    # -- frame replay ---------------------------------------------------------

    def _expand_census(self, bucket: int, frames: Callable[[str], Frames]) -> None:
        """Expand the census frames due in ``bucket``: one frame of
        ``count`` records and one ack per relay."""
        due = self._census_frames.pop(bucket, ())
        if not due:
            return
        parents = self._tree.parents
        census = frames(CENSUS_KIND)
        acks = frames(CENSUS_ACK_KIND)
        ack_size = HEADER_BYTES + _INT
        for node, count in due:
            parent = parents[node]
            census[0].append(node)
            census[1].append(parent)
            census[2].append(HEADER_BYTES + count * _RECORD)
            acks[0].append(parent)
            acks[1].append(node)
            acks[2].append(ack_size)

    def _release(self) -> None:
        """Drop the cascade's working state so the engine object does not
        pin a 100k round's heard lists through the later phases."""
        self._heard = {}
        self._joined = {}
        self._join_queue = {}
        self._heard_dissolves = {}
        self._rejected_from = {}
        self._events = None
        self._replay = None
        self._census_frames = {}
        self._decisions = {}
