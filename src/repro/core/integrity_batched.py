"""Batched report aggregation + verdict — Phase IV of ``engine="batched"``.

:class:`BatchedReportAndVerdictPhase` is the scalar
:class:`repro.core.integrity.ReportAndVerdictPhase` with its event
plumbing replaced: it inherits the phase state, the up-front draws
(``_draw_plan``), the head-report payload (``_head_report``) and every
decision — absorb, fold, drop or alter a report (``_take_report``),
relay an abort (``_take_abort``), witness checks, alarm routes
(``_alarm_targets``), dedup and suppression (``_relay_alarm``), and the
verdict — and runs them **in-process** on an
:class:`~repro.core.replay.EventHeap` instead of as per-frame simulator
events. Only these hooks differ from scalar:

* ``_send_report_hop`` and ``_send_ack`` record the frame into a
  :class:`~repro.core.replay.FrameReplay` and push its lossless delivery
  :data:`~repro.core.replay.EPS` later, where every witness in range
  overhears it and the addressee takes it, in adjacency order;
* ``_send_alarm`` records an alarm copy and walks it synchronously up
  the tree through ``_relay_alarm``, each hop at the copy's send instant;
* an abort is walked synchronously to the base station through
  ``_take_abort`` (no witness acts on an abort or its ack);
* honest rounds (no attack plan, no F-set conflicts) raise no alarm:
  every armed expectation is resolved by the absorber's own itemized
  report, and every tamper check compares equal. There the engine skips
  the witness machinery and folds each head's ``_head_report`` into its
  nearest reporting ancestor (strict ancestors always send later — one
  report slot per depth dominates the per-hop latency), or into the
  base station. This is the path the 100k-node benchmarks exercise.

The recorded frames are then replayed through the Transport seam, so
byte counters and the energy ledger stay truthful.

Equality/determinism contract: same as the batched clustering engine
(docs/PERF.md). On a lossless transport matching ``EPS`` the clusters,
alarms (as a set), suspect counts, totals and verdicts equal the scalar
engine's; on lossy transports the guarantee is seeded determinism.
Alarm *list order* at the base station may differ from scalar when two
alarm propagations interleave; all verdict inputs are order-insensitive.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.integrity import (
    ALARM_KIND,
    REPORT_ABORT_KIND,
    REPORT_ACK_KIND,
    REPORT_KIND,
    ReportAndVerdictPhase,
)
from repro.core.replay import EPS, EventHeap, FrameReplay
from repro.core.results import RoundResult
from repro.net.packet import HEADER_BYTES, INT_BYTES, Packet, payload_size

#: Wire size of an abort or an ack: one cluster id.
_CLUSTER_FRAME = HEADER_BYTES + INT_BYTES


class BatchedReportAndVerdictPhase(ReportAndVerdictPhase):
    """Drop-in replacement for ``ReportAndVerdictPhase`` (same
    constructor and ``run()`` API), selected by
    ``IcpdaConfig.engine == "batched"``.

    Inherits all phase state, decisions and the verdict from the scalar
    engine; only the event plumbing is replaced.
    """

    def run(self, true_value: float, total_sensors: int) -> RoundResult:
        sim = self._stack.sim
        t0 = sim.now
        events = self._events = EventHeap(t0)
        self._replay = FrameReplay(self._stack, t0)

        plan = self._draw_plan(t0)
        for delay, head in plan.aborts:
            self._relay_abort(t0 + delay, head)
        if self._attack is None and not plan.alarms:
            self._analytic_report_wave(plan.reports)
        else:
            for delay, member, head in plan.alarms:
                events.push(t0 + delay, self._raise_fset_alarm, member, head)
            for head, at in plan.reports.items():
                events.push(at, self._send_head_report, head)
            events.push(plan.end - 1.0, self._fire_watchdogs)
            events.run(until=plan.end)

        self._replay.schedule()
        sim.run(until=plan.end)
        self._replay = None
        self._events = None
        return self._verdict(true_value, total_sensors, sim.now - t0)

    # -- plumbing ---------------------------------------------------------------

    def _send_report_hop(
        self, sender: int, target: int, payload: dict, kind: str = REPORT_KIND
    ) -> None:
        # Reports only (aborts are walked by _relay_abort). No ARQ
        # timers: the reliable control plane never loses the first copy.
        now = self._events.now
        size = HEADER_BYTES + payload_size(payload)
        self._replay.record(now, sender, target, kind, size)
        self._events.push(now + EPS, self._deliver_report, sender, target, payload)

    def _send_ack(self, node: int, dst: int, cluster: int) -> None:
        now = self._events.now
        self._replay.record(now, node, dst, REPORT_ACK_KIND, _CLUSTER_FRAME)
        self._events.push(now + EPS, self._deliver_ack, node, dst, cluster)

    def _send_alarm(
        self, witness: int, target: int, payload: dict, delay: float
    ) -> None:
        # The copy's whole route resolves at once; every hop replays at
        # the copy's send instant.
        at = self._events.now + delay
        size = HEADER_BYTES + payload_size(payload)
        self._replay.record(at, witness, target, ALARM_KIND, size)
        node = target
        while True:
            nxt = self._relay_alarm(node, payload)
            if nxt is None:
                return
            self._replay.record(at, node, nxt, ALARM_KIND, size)
            node = nxt

    def _relay_abort(self, at: float, head: int) -> None:
        """Walk ``head``'s abort to the base station: each hop's frame,
        then its ack one ``EPS`` later."""
        record = self._replay.record
        node, hop = head, 0
        parent = self._tree.parents.get(head)
        while parent is not None:
            record(at + hop * EPS, node, parent, REPORT_ABORT_KIND, _CLUSTER_FRAME)
            hop += 1
            record(at + hop * EPS, parent, node, REPORT_ACK_KIND, _CLUSTER_FRAME)
            node, parent = parent, self._take_abort(parent, head)

    def _deliver_report(self, src: int, dst: int, payload: dict) -> None:
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
                self._take_report(dst, src, payload)

    def _deliver_ack(self, acker: int, orig: int, cluster: int) -> None:
        packet = Packet(
            src=acker, dst=orig, kind=REPORT_ACK_KIND,
            payload={"cluster": cluster}, size_bytes=HEADER_BYTES,
        )
        flags = self._witness_flags
        for receiver in self._stack.neighbors(acker):
            if flags.get(receiver):
                self._witness(receiver, packet)

    # -- honest fast path -----------------------------------------------------

    def _analytic_report_wave(self, send_times: Dict[int, float]) -> None:
        """Fold every completed cluster's report into its nearest
        reporting ancestor (or the BS) without simulating witnesses —
        sound because an honest lossless wave can raise no alarms."""
        parents = self._tree.parents
        root = self._tree.root
        states = self._head_states
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
        record = self._replay.record
        for head in sorted(states, key=send_times.__getitem__):
            payload, included = self._head_report(head)
            path = paths[head]
            if len(path) < 2:
                continue
            size = HEADER_BYTES + payload_size(payload)
            at = send_times[head]
            for k in range(len(path) - 1):
                record(at + k * EPS, path[k], path[k + 1], REPORT_KIND, size)
                record(
                    at + (k + 1) * EPS, path[k + 1], path[k], REPORT_ACK_KIND,
                    _CLUSTER_FRAME,
                )
            self._absorb(
                path[-1],
                head,
                tuple(payload["total"]),
                payload["contributors"],
                tuple(int(i) for i in included),
            )
