"""Batched report aggregation + verdict — Phase IV of ``engine="batched"``.

:class:`BatchedReportAndVerdictPhase` computes Phase IV in-process
instead of as per-frame simulator events, then replays the frames the
wave would have put on the air through the Transport seam
(:class:`~repro.core.replay.FrameReplay`, shared by every batched engine).

Two regimes, both under the reliable-control-plane assumption
(every frame delivered exactly once, one-hop latency
:data:`~repro.core.replay.EPS`):

* **Honest rounds** (no attack plan, no F-set conflicts): no witness can
  ever fire — every armed expectation is resolved by the absorber's own
  itemized report, and all tamper checks compare equal — so the engine
  skips the per-(suspect, witness) machinery entirely and computes the
  absorption hierarchy analytically: each head's report folds into its
  nearest reporting ancestor (strict ancestors always send later — one
  report slot per depth dominates the per-hop latency), or into the
  base station. This is the path the 100k-node benchmarks exercise.
* **Attacked rounds**: a compact in-engine event loop replays each
  report handoff chronologically and drives the *scalar* witness logic
  (inherited ``_witness`` / ``_check_head_report`` /
  ``_resolve_expectations`` / ``_fire_watchdogs``) with synthesized
  packets, so arming, resolution, alarm draws and verdicts follow the
  scalar semantics — and the scalar RNG stream — exactly.

Equality/determinism contract: same as the batched clustering engine
(docs/PERF.md). On a lossless transport matching ``EPS`` the clusters,
alarms (as a set), suspect counts, totals and verdicts equal the scalar
engine's; on lossy transports the guarantee is seeded determinism.
Alarm *list order* at the base station may differ from scalar when two
alarm propagations interleave; all verdict inputs are order-insensitive.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Tuple

from repro.core.integrity import (
    ALARM_KIND,
    FSET_DETAIL,
    REPORT_ABORT_KIND,
    REPORT_ACK_KIND,
    REPORT_KIND,
    ReportAndVerdictPhase,
)
from repro.core.replay import EPS, FrameReplay
from repro.core.results import AlarmReason, AlarmRecord, RoundResult
from repro.net.packet import HEADER_BYTES, Packet, payload_size

_INT = 4  # wire size of one small-int payload field

# In-engine event codes (heap entries are (time, seq, code, data)).
_E_HEAD = 0  # a head transmits its (possibly mutated) report
_E_RPT = 1  # a report frame is delivered (witnesses + addressee)
_E_ACK = 2  # a report ack is delivered (witnesses)
_E_FSET = 3  # an exchange-detected F-set conflict becomes an alarm
_E_DOG = 4  # the watchdog deadline fires


class BatchedReportAndVerdictPhase(ReportAndVerdictPhase):
    """Drop-in replacement for ``ReportAndVerdictPhase`` (same
    constructor and ``run()`` API), selected by
    ``IcpdaConfig.engine == "batched"``.

    Inherits all phase state and the verdict rendering from the scalar
    engine; only the event plumbing is replaced.
    """

    def run(self, true_value: float, total_sensors: int) -> RoundResult:
        sim = self._stack.sim
        cfg = self._config
        t0 = sim.now
        self._now = t0
        self._replay = FrameReplay(self._stack, t0)

        # Draw order matches the scalar run(): abort delays, F-set alarm
        # delays, then per-head report jitters; event-time draws (alarm
        # alternate routes) follow chronologically in the event loop.
        abort_times = [
            (t0 + float(self._rng.uniform(0.1, 1.5)), head)
            for head in self._aborted_heads
        ]
        fset_events = []
        for member, head in self._exchange.fset_conflicts:
            if self._attack is not None and self._plan_colludes(member):
                continue
            fset_events.append(
                (t0 + float(self._rng.uniform(0.1, 1.0)), member, head)
            )
        max_depth = self._tree.max_depth()
        send_times: Dict[int, float] = {}
        for head in self._head_states:
            depth = self._tree.depths.get(head, max_depth)
            slots = max_depth - depth + 1
            send_times[head] = (
                t0 + slots * cfg.slot_s + float(self._rng.uniform(0, cfg.slot_s * 0.5))
            )
        phase_end = t0 + (max_depth + 2) * cfg.slot_s + cfg.window_verdict_s

        # Exchange aborts relay straight to the BS (no hooks, no
        # witnesses fire on abort frames under losslessness).
        for at, head in abort_times:
            self._replay_abort(at, head)

        if self._attack is None and not fset_events:
            self._analytic_report_wave(send_times)
        else:
            self._simulate_report_wave(send_times, fset_events, phase_end)

        self._replay.schedule()
        sim.run(until=phase_end)
        self._replay = None
        return self._verdict(true_value, total_sensors, sim.now - t0)

    # -- honest fast path -----------------------------------------------------

    def _analytic_report_wave(self, send_times: Dict[int, float]) -> None:
        """Fold every completed cluster's report into its nearest
        reporting ancestor (or the BS) without simulating witnesses —
        sound because an honest lossless wave can raise no alarms."""
        parents = self._tree.parents
        root = self._tree.root
        states = self._head_states
        witnessed = self._config.integrity_mode == "witnessed"
        paths: Dict[int, List[int]] = {}
        for head in states:
            path = [head]
            node = parents.get(head)
            while node is not None:
                path.append(node)
                if node == root or node in states:
                    break
                node = parents.get(node)
            paths[head] = path

        # Children always arrive before their absorber transmits (one
        # report slot per tree depth >> per-hop latency), so processing
        # heads in send order sees every child folded in.
        for head in sorted(states, key=send_times.__getitem__):
            state = states[head]
            state.sent = True
            totals = list(state.own)
            contributors = state.contributors
            children_payload = []
            included = [head]
            for child_id, child_totals, child_contrib, child_ids in state.children:
                for k in range(self._arity):
                    totals[k] += child_totals[k]
                contributors += child_contrib
                children_payload.append([child_id, list(child_totals), child_contrib])
                included.extend(child_ids)
            if witnessed:
                payload = {
                    "cluster": head,
                    "own": list(state.own),
                    "children": children_payload,
                    "total": totals,
                    "contributors": contributors,
                    "ids": included,
                }
            else:
                payload = {
                    "cluster": head,
                    "total": totals,
                    "contributors": contributors,
                }
            path = paths[head]
            if len(path) < 2:
                continue
            size = HEADER_BYTES + payload_size(payload)
            at = send_times[head]
            for k in range(len(path) - 1):
                self._replay.record(at + k * EPS, path[k], path[k + 1], REPORT_KIND, size)
                self._replay.record(
                    at + (k + 1) * EPS,
                    path[k + 1],
                    path[k],
                    REPORT_ACK_KIND,
                    HEADER_BYTES + _INT,
                )
            ids = tuple(int(i) for i in included)
            absorber = path[-1]
            if absorber == root:
                self._absorb_at_bs(head, tuple(totals), contributors, ids)
            else:
                states[absorber].children.append(
                    (head, tuple(totals), contributors, ids)
                )

    def _replay_abort(self, at: float, head: int) -> None:
        parents = self._tree.parents
        node = head
        parent = parents.get(node)
        hop = 0
        while parent is not None:
            self._replay.record(
                at + hop * EPS, node, parent, REPORT_ABORT_KIND, HEADER_BYTES + _INT
            )
            self._replay.record(
                at + (hop + 1) * EPS, parent, node, REPORT_ACK_KIND, HEADER_BYTES + _INT
            )
            node = parent
            parent = parents.get(node)
            hop += 1
        if node == self._tree.root and node != head:
            self._bs_aborted.add(head)

    # -- attacked rounds: chronological handoff replay ------------------------

    def _simulate_report_wave(
        self,
        send_times: Dict[int, float],
        fset_events: List[Tuple[float, int, int]],
        phase_end: float,
    ) -> None:
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        for at, member, head in fset_events:
            self._push(at, _E_FSET, (member, head))
        for head, at in send_times.items():
            self._push(at, _E_HEAD, (head,))
        self._push(phase_end - 1.0, _E_DOG, ())
        heap = self._heap
        while heap:
            at, _s, code, data = heapq.heappop(heap)
            if at > phase_end:
                break  # past the phase deadline, like the scalar run()
            self._now = at
            if code == _E_RPT:
                self._deliver_report(at, *data)
            elif code == _E_ACK:
                self._deliver_ack(*data)
            elif code == _E_HEAD:
                self._send_head_report(data[0])
            elif code == _E_FSET:
                member, head = data
                self._raise_alarm(
                    member,
                    head,
                    AlarmReason.FSET_TAMPERED,
                    FSET_DETAIL,
                    cluster=head,
                )
            else:
                self._fire_watchdogs()
        self._heap = []

    def _push(self, at: float, code: int, data: tuple) -> None:
        heapq.heappush(self._heap, (at, next(self._seq), code, data))

    def _send_report_hop(
        self, sender: int, target: int, payload: dict, kind: str = REPORT_KIND
    ) -> None:
        # Overrides the scalar hop: record the frame for replay and
        # enqueue the (guaranteed) delivery. No ARQ timers — the
        # reliable control plane never loses the first copy.
        size = HEADER_BYTES + payload_size(payload)
        self._replay.record(self._now, sender, target, kind, size)
        if kind == REPORT_KIND:
            self._push(self._now + EPS, _E_RPT, (sender, target, payload))

    def _deliver_report(self, at: float, src: int, dst: int, payload: dict) -> None:
        # Mirrors the lossless-transport delivery order: every audible
        # receiver overhears (in adjacency order), the addressee's
        # handler runs in its slot of that sweep.
        packet = Packet(
            src=src, dst=dst, kind=REPORT_KIND, payload=payload,
            size_bytes=HEADER_BYTES,
        )
        flags = self._witness_flags
        for receiver in self._stack.neighbors(src):
            if flags.get(receiver):
                self._witness(receiver, packet)
            if receiver == dst:
                self._receive_report(at, src, dst, payload)

    def _receive_report(self, at: float, src: int, dst: int, payload: dict) -> None:
        payload = dict(payload)
        cluster = int(payload["cluster"])
        self._replay.record(at, dst, src, REPORT_ACK_KIND, HEADER_BYTES + _INT)
        self._push(at + EPS, _E_ACK, (dst, src, cluster))
        if not self._report_arq.take(dst, cluster):
            return
        ids = tuple(int(i) for i in payload.get("ids", (cluster,)))
        if dst == self._tree.root:
            self._absorb_at_bs(
                cluster,
                tuple(int(v) for v in payload["total"]),
                int(payload["contributors"]),
                ids,
            )
            return
        head_state = self._head_states.get(dst)
        if head_state is not None and not head_state.sent:
            head_state.children.append(
                (
                    cluster,
                    tuple(int(v) for v in payload["total"]),
                    int(payload["contributors"]),
                    ids,
                )
            )
            return
        if self._attack is not None and self._attack.drops_report(dst, payload):
            self._stack.sim.trace.emit(
                "attack.drop_report", f"node {dst} dropped report {cluster}",
                node=dst, cluster=cluster,
            )
            return
        if self._attack is not None:
            payload = self._attack.mutate_forward(dst, payload)
        parent = self._tree.parents.get(dst)
        if parent is not None:
            self._send_report_hop(dst, parent, payload)

    def _deliver_ack(self, acker: int, orig: int, cluster: int) -> None:
        packet = Packet(
            src=acker, dst=orig, kind=REPORT_ACK_KIND,
            payload={"cluster": cluster}, size_bytes=HEADER_BYTES,
        )
        flags = self._witness_flags
        for receiver in self._stack.neighbors(acker):
            if flags.get(receiver):
                self._witness(receiver, packet)

    def _raise_alarm(
        self,
        witness: int,
        suspect: int,
        reason: AlarmReason,
        detail: str,
        cluster: int = -1,
    ) -> None:
        # Overrides the scalar alarm: same trace, same alternate-route
        # draw, but the two-path tree propagation (dedup + suppression)
        # resolves synchronously instead of via per-hop events.
        self._stack.sim.trace.emit(
            "icpda.alarm",
            f"witness {witness} accuses {suspect}: {reason.value}",
            witness=witness,
            suspect=suspect,
            reason=reason.value,
            cluster=cluster,
        )
        payload = {
            "witness": witness,
            "suspect": suspect,
            "reason": reason.value,
            "detail": detail,
            "cluster": cluster,
        }
        size = HEADER_BYTES + payload_size(payload)
        at = self._now
        parents = self._tree.parents
        root = self._tree.root
        targets = []
        parent = parents.get(witness)
        if parent is not None:
            targets.append(parent)
        neighbors = [
            n for n in self._stack.neighbors(witness)
            if n != parent and n in parents
        ]
        if neighbors:
            targets.append(int(neighbors[self._rng.integers(0, len(neighbors))]))
        key = (witness, suspect, reason.value, cluster)
        for target in targets:
            self._replay.record(at, witness, target, ALARM_KIND, size)
            node = target
            while True:
                seen = self._alarm_seen.setdefault(node, set())
                if key in seen:
                    break  # another path already carried it onward
                seen.add(key)
                if node == root:
                    if key not in self._alarms:
                        self._alarms[key] = AlarmRecord(
                            witness=witness,
                            suspect=suspect,
                            reason=reason,
                            detail=detail,
                            cluster=cluster,
                        )
                    break
                if self._attack is not None and self._attack.suppresses_alarm(node):
                    self._stack.sim.trace.emit(
                        "attack.suppress_alarm",
                        f"node {node} swallowed an alarm",
                        node=node,
                    )
                    break
                nxt = parents.get(node)
                if nxt is None:
                    break
                self._replay.record(at, node, nxt, ALARM_KIND, size)
                node = nxt
