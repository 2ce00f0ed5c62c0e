"""Integrity-enforcing report aggregation (Phase IV of iCPDA).

Cluster heads forward **itemized** reports up the node tree:

    ``{cluster, own, children: [(child_id, totals, contributors)...],
       total, contributors}``

Relays forward hop-by-hop (with link ARQ); a report is absorbed by the
first cluster head on its path that has not yet sent its own report, or
by the base station. Aggregation therefore happens only at heads — whose
behaviour is *publicly checkable* thanks to the shared medium:

**Peer monitoring.** Every witness (cluster members that recovered the
cluster sum, plus bystanders along relay paths) listens promiscuously:

* a member witness verifies its head's ``own`` equals the cluster sum it
  recovered itself, and that ``total = own + Σ children`` — both exact
  integer checks (*hard* evidence on failure);
* any witness that overheard a report addressed to neighbor ``X`` — and
  then overheard ``X``'s link ack — expects ``X`` to either forward the
  identical report or list it unaltered among its children; alteration is
  *hard* evidence, silence by the deadline is *soft* evidence (``X`` may
  be a victim of collisions, hence the separate drop quorum).

Alarms travel to the base station along two paths (tree parent + a
random alternate neighbor) so a single attacker cannot silently swallow
its own indictment. The base station de-duplicates alarms and renders a
:class:`~repro.core.results.Verdict`: reject on hard alarms (quorum 1 by
default), on drop-alarm quorums, or when the contributor count strays
from the formation census by more than ``Th``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Set, Tuple

from repro.aggregation.functions import AdditiveAggregate
from repro.aggregation.tree import TreeBuildResult
from repro.core.arq import StopAndWait
from repro.core.clustering import ClusteringResult
from repro.core.config import IcpdaConfig
from repro.core.intracluster import ExchangeResult
from repro.core.results import AlarmReason, AlarmRecord, RoundResult, Verdict
from repro.net.packet import Packet
from repro.net.transport import OverhearListener, Transport

REPORT_KIND = "report"
REPORT_ABORT_KIND = "report_abort"
REPORT_ACK_KIND = "report_ack"
ALARM_KIND = "alarm"

#: Per-depth report slot (seconds), as in TAG: a head at depth ``d``
#: reports ``max_depth - d + 1`` slots after the phase starts.
SLOT_S = 0.6
#: Time the base station waits after the root's slot for late alarms.
WINDOW_VERDICT_S = 10.0
#: Alarms that reject a round: one value mismatch is hard evidence; the
#: drop watchdog is soft (a witness can miss a frame), so two witnesses
#: must name the same suspect.
ALARM_QUORUM_VALUE = 1
ALARM_QUORUM_DROP = 2

#: Alarm detail for a head whose published F-set contradicts a member.
FSET_DETAIL = "published F-set contradicts a first-hand F-value"


class AttackPlan(Protocol):
    """Hook points a pollution adversary can implement.

    The protocol consults the plan at every tamper opportunity a real
    compromised node would have; an honest run passes ``None``.
    """

    def mutate_report(self, node: int, payload: dict) -> dict:
        """Alter the node's own outbound head report."""

    def mutate_forward(self, node: int, payload: dict) -> dict:
        """Alter a report the node is relaying."""

    def drops_report(self, node: int, payload: dict) -> bool:
        """True to silently drop a report instead of relaying it."""

    def suppresses_alarm(self, node: int) -> bool:
        """True to swallow alarms routed through the node."""

    def colludes(self, node: int) -> bool:
        """True if the node is a silent co-conspirator: it performs its
        protocol duties but never witnesses against other attackers.
        This models the paper's (future-work) collusive attack boundary."""


@dataclass
class _HeadState:
    """Send-side state of one reporting head.

    ``children`` entries are ``(cluster_id, totals, contributors,
    included_ids)`` — the last element lets the head propagate the full
    set of cluster ids its total accounts for, which the base station
    uses to refute stale drop alarms.
    """

    head: int
    own: Tuple[int, ...]
    contributors: int
    children: List[Tuple[int, Tuple[int, ...], int, Tuple[int, ...]]] = field(
        default_factory=list
    )
    sent: bool = False


@dataclass
class _Expectation:
    """A witness's armed watchdog for one (suspect, cluster) handoff.

    ``sender`` is the node that handed the report to the suspect; its own
    ARQ retransmissions must not count as evidence either way.
    """

    sender: int
    totals: Tuple[int, ...]
    contributors: int
    acked: bool = False
    resolved: bool = False


class ReportAndVerdictPhase:
    """Executes Phase IV and renders the verdict.

    Parameters
    ----------
    stack, tree, clustering, exchange:
        Products of the earlier phases.
    config, aggregate:
        Protocol tunables and the aggregate being computed.
    attack_plan:
        Optional adversary hooks.
    round_id:
        RNG salt.
    """

    def __init__(
        self,
        stack: Transport,
        tree: TreeBuildResult,
        clustering: ClusteringResult,
        exchange: ExchangeResult,
        config: IcpdaConfig,
        aggregate: AdditiveAggregate,
        attack_plan: Optional[AttackPlan] = None,
        round_id: int = 0,
    ) -> None:
        self._stack = stack
        self._tree = tree
        self._clustering = clustering
        self._exchange = exchange
        self._config = config
        self._aggregate = aggregate
        self._attack = attack_plan
        self._rng = stack.sim.rng.stream(f"report.{round_id}")
        self._arity = aggregate.arity
        #: ``(node, listener)`` per overhear listener this phase attached,
        #: as the transport returned it (the protocol detaches them).
        self.listeners: List[Tuple[int, OverhearListener]] = []
        bs = tree.root

        # Reporting heads: completed exchange, participating, not the BS.
        self._head_states: Dict[int, _HeadState] = {}
        for head, state in exchange.states.items():
            if not state.completed or head == bs:
                continue
            self._head_states[head] = _HeadState(
                head=head,
                own=tuple(state.cluster_sums),
                contributors=state.contributors,
            )

        # Base-station accumulator, seeded with the BS's own cluster.
        self._bs_totals: List[int] = list(aggregate.identity())
        self._bs_contributors = 0
        self._bs_absorbed: Set[int] = set()
        self._bs_included: Set[int] = set()
        self._bs_aborted: Set[int] = set()
        bs_state = exchange.states.get(bs)
        if bs_state is not None and bs_state.completed:
            self._absorb_at_bs(bs, bs_state.cluster_sums, bs_state.contributors, (bs,))

        # Clusters that registered in the census but failed their share
        # exchange announce the abort so the BS adjusts its expectation.
        self._aborted_heads: List[int] = sorted(
            head
            for head, state in exchange.states.items()
            if not state.completed and head != bs
        )

        # Witness selection: all members with recovered sums, thinned by
        # witness_fraction; bystander watchdogs use the same flags.
        self._witness_flags: Dict[int, bool] = {}
        witnessing = config.integrity_mode == "witnessed"
        if witnessing and attack_plan is None:
            # One vectorized draw. Generator.random(n) emits the exact
            # doubles n sequential random() calls would, so the stream
            # position — and every later draw — is unchanged (pinned by
            # a test in tests/core/test_report_batched.py).
            others = [n for n in stack.node_ids() if n != bs]
            draws = self._rng.random(len(others))
            self._witness_flags = {
                node: bool(draw < config.witness_fraction)
                for node, draw in zip(others, draws)
            }
            self._witness_flags[bs] = False
        else:
            for node in stack.node_ids():
                colluding = attack_plan is not None and self._plan_colludes(node)
                self._witness_flags[node] = (
                    witnessing
                    and node != bs
                    and not colluding
                    and float(self._rng.random()) < config.witness_fraction
                )
        self._member_sums = dict(exchange.witness_sums)
        self._head_of: Dict[int, int] = {}
        for head, cluster in clustering.clusters.items():
            for member in cluster.informed_members:
                self._head_of[member] = head

        # cluster id -> (suspect, witness) -> expectation. Canonical
        # store; the watchdog/finalize sweeps iterate it so their alarm
        # order is fixed by slot-creation order.
        self._expectations: Dict[int, Dict[Tuple[int, int], _Expectation]] = {}
        # (suspect, witness) -> number of UNRESOLVED expectations across
        # all clusters: lets the own-head-report resolution path return
        # immediately in the common case (nothing armed for this
        # suspect/witness pair).
        self._unresolved: Dict[Tuple[int, int], int] = {}
        # Secondary indexes over the SAME _Expectation objects, so the
        # per-overheard-frame paths touch only the entries they can
        # resolve instead of scanning whole slots (the report wave at
        # 20k nodes overhears ~700k frames — O(slot) scans dominated
        # the round before these were added). Entries keep each list in
        # arming order, matching the filtered iteration order of the
        # canonical store within one slot.
        # (suspect, witness) -> [(cluster, expectation), ...]
        self._armed_by_pair: Dict[Tuple[int, int], List[Tuple[int, _Expectation]]] = {}
        # (cluster, witness) -> [(suspect, expectation), ...]
        self._armed_by_cw: Dict[Tuple[int, int], List[Tuple[int, _Expectation]]] = {}
        # Reports and aborts of one cluster share an ARQ key, so one ack
        # or one take covers both kinds.
        self._report_arq = StopAndWait(stack, base=1.5)
        self._alarms: Dict[Tuple[int, int, str, int], AlarmRecord] = {}
        # node -> alarm keys already relayed; created on a node's first
        # alarm (most nodes never see one).
        self._alarm_seen: Dict[int, Set[Tuple[int, int, str, int]]] = {}

    # -- public API --------------------------------------------------------------

    def run(self, true_value: float, total_sensors: int) -> RoundResult:
        """Run the report phase, collect alarms, and decide the verdict."""
        sim = self._stack.sim
        t0 = sim.now

        handlers = (
            (REPORT_KIND, self._on_report),
            (REPORT_ABORT_KIND, self._on_report_abort),
            (REPORT_ACK_KIND, self._on_report_ack),
            (ALARM_KIND, self._on_alarm),
        )
        witness = self._witness
        for node in self._stack.node_ids():
            for kind, handler in handlers:
                self._stack.register_handler(node, kind, handler)
            if self._witness_flags.get(node):
                listener = self._stack.register_overhear(
                    node, witness, kinds=(REPORT_KIND, REPORT_ACK_KIND)
                )
                self.listeners.append((node, listener))

        for head in self._aborted_heads:
            delay = float(self._rng.uniform(0.1, 1.5))
            sim.schedule(delay, self._send_abort, args=(head,))

        # Conflicts detected during the exchange (a head publishing a
        # falsified F-set) become hard alarms immediately — from honest
        # members only.
        for member, head in self._exchange.fset_conflicts:
            if self._attack is not None and self._plan_colludes(member):
                continue
            delay = float(self._rng.uniform(0.1, 1.0))
            sim.schedule(
                delay,
                self._raise_alarm,
                args=(member, head, AlarmReason.FSET_TAMPERED, FSET_DETAIL, head),
            )

        max_depth = self._tree.max_depth()
        for head, state in self._head_states.items():
            depth = self._tree.depths.get(head, max_depth)
            slots = max_depth - depth + 1
            at = t0 + slots * SLOT_S + float(self._rng.uniform(0, SLOT_S * 0.5))
            sim.schedule_at(at, self._send_head_report, args=(head,))

        phase_end = t0 + (max_depth + 2) * SLOT_S + WINDOW_VERDICT_S
        sim.schedule_at(phase_end - 1.0, self._fire_watchdogs)
        sim.run(until=phase_end)

        return self._verdict(true_value, total_sensors, sim.now - t0)

    # -- head sending ---------------------------------------------------------------

    def _send_head_report(self, head: int) -> None:
        state = self._head_states[head]
        state.sent = True
        totals = list(state.own)
        contributors = state.contributors
        children_payload = []
        included = [head]
        for child_id, child_totals, child_contrib, child_ids in state.children:
            for k in range(self._arity):
                totals[k] += child_totals[k]
            contributors += child_contrib
            children_payload.append(
                [child_id, list(child_totals), child_contrib]
            )
            included.extend(child_ids)
        if self._config.integrity_mode == "witnessed":
            payload = {
                "cluster": head,
                "own": list(state.own),
                "children": children_payload,
                "total": totals,
                "contributors": contributors,
                "ids": included,
            }
        else:
            # Privacy-only: no itemization for witnesses to check.
            payload = {
                "cluster": head,
                "total": totals,
                "contributors": contributors,
            }
        if self._attack is not None:
            payload = self._attack.mutate_report(head, payload)
        parent = self._tree.parents.get(head)
        if parent is None:
            return
        self._send_report_hop(head, parent, payload)

    def _plan_colludes(self, node: int) -> bool:
        """Backwards-compatible probe of the optional colludes() hook."""
        colludes = getattr(self._attack, "colludes", None)
        if colludes is None:
            return False
        return bool(colludes(node))

    def _send_abort(self, head: int) -> None:
        parent = self._tree.parents.get(head)
        if parent is None:
            return
        self._send_report_hop(head, parent, {"cluster": head}, REPORT_ABORT_KIND)

    def _send_report_hop(
        self, sender: int, target: int, payload: dict, kind: str = REPORT_KIND
    ) -> None:
        self._report_arq.send(
            sender,
            int(payload["cluster"]),
            self._stack.send,
            (sender, target, kind, payload),
        )

    # -- report relaying / absorption ---------------------------------------------------

    def _on_report(self, node: int, packet: Packet) -> None:
        payload = dict(packet.payload)
        cluster = int(payload["cluster"])
        self._stack.send(node, packet.src, REPORT_ACK_KIND, {"cluster": cluster})
        if not self._report_arq.take(node, cluster):
            return  # duplicate from a lost ack: re-acked above, done

        ids = tuple(int(i) for i in payload.get("ids", (cluster,)))
        if node == self._tree.root:
            self._absorb_at_bs(
                cluster,
                tuple(int(v) for v in payload["total"]),
                int(payload["contributors"]),
                ids,
            )
            return

        head_state = self._head_states.get(node)
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

        if self._attack is not None and self._attack.drops_report(node, payload):
            self._stack.sim.trace.emit(
                "attack.drop_report", f"node {node} dropped report {cluster}",
                node=node, cluster=cluster,
            )
            return
        if self._attack is not None:
            payload = self._attack.mutate_forward(node, payload)
        parent = self._tree.parents.get(node)
        if parent is not None:
            self._send_report_hop(node, parent, payload)

    def _on_report_abort(self, node: int, packet: Packet) -> None:
        cluster = int(packet.payload["cluster"])
        self._stack.send(node, packet.src, REPORT_ACK_KIND, {"cluster": cluster})
        if not self._report_arq.take(node, cluster):
            return
        if node == self._tree.root:
            self._bs_aborted.add(cluster)
            return
        parent = self._tree.parents.get(node)
        if parent is not None:
            self._send_report_hop(
                node, parent, dict(packet.payload), REPORT_ABORT_KIND
            )

    def _on_report_ack(self, node: int, packet: Packet) -> None:
        self._report_arq.ack(node, int(packet.payload["cluster"]))

    def _absorb_at_bs(
        self,
        cluster: int,
        totals: Sequence[int],
        contributors: int,
        ids: Sequence[int],
    ) -> None:
        if cluster in self._bs_absorbed:
            return
        self._bs_absorbed.add(cluster)
        self._bs_included.update(int(i) for i in ids)
        for k in range(self._arity):
            self._bs_totals[k] += int(totals[k])
        self._bs_contributors += contributors

    # -- witnessing -----------------------------------------------------------------

    def _witness(self, node: int, packet: Packet) -> None:
        if packet.kind == REPORT_ACK_KIND:
            cluster = int(packet.payload["cluster"])
            entries = self._armed_by_cw.get((cluster, node))
            if entries is None:
                return
            for suspect, expectation in entries:
                if expectation.resolved:
                    continue
                if packet.src == suspect:
                    expectation.acked = True
                elif packet.src != expectation.sender:
                    # A third party acknowledged this cluster's report:
                    # it moved past the suspect. Resolve silently.
                    expectation.resolved = True
                    self._unresolved[(suspect, node)] -= 1
            return
        if packet.kind != REPORT_KIND:
            return
        payload = packet.payload
        cluster = int(payload["cluster"])

        # 1. Member witness: my head's own report.
        if packet.src == self._head_of.get(node) and cluster == packet.src:
            self._check_head_report(node, packet.src, payload)

        # 2. Resolve expectations this frame bears on.
        self._resolve_expectations(node, packet.src, payload)

        # 3. Arm a watchdog for the next hop, if it is my neighbor.
        # The totals/contributors parse is deferred to here: most
        # overheard report frames arm nothing.
        target = packet.dst
        if (
            target != node
            and target != self._tree.root
            and target in self._stack.neighbors(node)
        ):
            slot = self._expectations.setdefault(cluster, {})
            key = (target, node)
            if key not in slot:
                expectation = _Expectation(
                    sender=packet.src,
                    totals=tuple(int(v) for v in payload["total"]),
                    contributors=int(payload["contributors"]),
                )
                slot[key] = expectation
                self._armed_by_pair.setdefault(key, []).append(
                    (cluster, expectation)
                )
                self._armed_by_cw.setdefault((cluster, node), []).append(
                    (target, expectation)
                )
                unresolved = self._unresolved
                unresolved[key] = unresolved.get(key, 0) + 1

    def _check_head_report(self, witness: int, head: int, payload: dict) -> None:
        my_sums = self._member_sums.get(witness)
        own = tuple(int(v) for v in payload["own"])
        if my_sums is not None and own != tuple(my_sums):
            self._raise_alarm(
                witness,
                head,
                AlarmReason.OWN_SUM_MISMATCH,
                f"claimed {own}, recovered {tuple(my_sums)}",
                cluster=head,
            )
        expected = list(own)
        for child_id, child_totals, _ in payload["children"]:
            del child_id
            for k in range(self._arity):
                expected[k] += int(child_totals[k])
        total = [int(v) for v in payload["total"]]
        if total != expected:
            self._raise_alarm(
                witness,
                head,
                AlarmReason.TOTAL_ARITHMETIC,
                f"total {total} != own+children {expected}",
                cluster=head,
            )

    def _resolve_expectations(self, witness: int, actor: int, payload: dict) -> None:
        cluster = int(payload["cluster"])

        if cluster == actor:
            # Actor's own head report: every armed (actor, c) expectation
            # this witness holds must appear unaltered in its child list.
            # The unresolved counter skips both the index walk and the
            # child-list parse when this witness watches nothing for this
            # actor — the common case for every overheard head report.
            if not self._unresolved.get((actor, witness)):
                return
            listed = {
                int(c[0]): tuple(int(v) for v in c[1]) for c in payload["children"]
            }
            for child_cluster, expectation in self._armed_by_pair[(actor, witness)]:
                if expectation.resolved:
                    continue
                seen = listed.get(child_cluster)
                if seen is None:
                    continue  # maybe dropped: the watchdog deadline decides
                expectation.resolved = True
                self._unresolved[(actor, witness)] -= 1
                if seen != expectation.totals:
                    self._raise_alarm(
                        witness,
                        actor,
                        AlarmReason.CHILD_TAMPERED,
                        f"child {child_cluster}: listed {seen}, "
                        f"delivered {expectation.totals}",
                        cluster=child_cluster,
                    )
            return

        slot = self._expectations.get(cluster)
        if slot is None:
            return
        # Actor forwarded this cluster's report: exact comparison.
        expectation = slot.get((actor, witness))
        if expectation is not None and not expectation.resolved:
            expectation.resolved = True
            self._unresolved[(actor, witness)] -= 1
            totals = tuple(int(v) for v in payload["total"])
            if totals != expectation.totals:
                self._raise_alarm(
                    witness,
                    actor,
                    AlarmReason.RELAY_TAMPERED,
                    f"forwarded {totals}, received {expectation.totals}",
                    cluster=cluster,
                )
        # Downstream evidence: someone other than the suspect (and other
        # than the original sender's retransmissions) is carrying this
        # cluster's report, so every suspect this witness watches for the
        # cluster has demonstrably passed it on.
        entries = self._armed_by_cw.get((cluster, witness))
        if entries is None:
            return
        for suspect, other in entries:
            if other.resolved or actor == suspect or actor == other.sender:
                continue
            other.resolved = True
            self._unresolved[(suspect, witness)] -= 1

    def _fire_watchdogs(self) -> None:
        for cluster, slot in self._expectations.items():
            for (suspect, witness), expectation in slot.items():
                if expectation.resolved or not expectation.acked:
                    continue
                expectation.resolved = True
                self._unresolved[(suspect, witness)] -= 1
                self._raise_alarm(
                    witness,
                    suspect,
                    AlarmReason.DROPPED,
                    f"report of cluster {cluster} acked but never re-emitted",
                    cluster=cluster,
                )

    # -- alarms -----------------------------------------------------------------

    def _raise_alarm(
        self,
        witness: int,
        suspect: int,
        reason: AlarmReason,
        detail: str,
        cluster: int = -1,
    ) -> None:
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
        targets = []
        parent = self._tree.parents.get(witness)
        if parent is not None:
            targets.append(parent)
        neighbors = [
            n for n in self._stack.neighbors(witness)
            if n != parent and n in self._tree.parents
        ]
        if neighbors:
            alt = int(neighbors[self._rng.integers(0, len(neighbors))])
            targets.append(alt)
        for target in targets:
            self._stack.send(witness, target, ALARM_KIND, dict(payload))

    def _on_alarm(self, node: int, packet: Packet) -> None:
        payload = packet.payload
        key = (
            int(payload["witness"]),
            int(payload["suspect"]),
            str(payload["reason"]),
            int(payload.get("cluster", -1)),
        )
        seen = self._alarm_seen.setdefault(node, set())
        if key in seen:
            return
        seen.add(key)
        if node == self._tree.root:
            if key not in self._alarms:
                self._alarms[key] = AlarmRecord(
                    witness=key[0],
                    suspect=key[1],
                    reason=AlarmReason(key[2]),
                    detail=str(payload["detail"]),
                    cluster=key[3],
                )
            return
        if self._attack is not None and self._attack.suppresses_alarm(node):
            self._stack.sim.trace.emit(
                "attack.suppress_alarm", f"node {node} swallowed an alarm",
                node=node,
            )
            return
        parent = self._tree.parents.get(node)
        if parent is not None:
            self._stack.send(node, parent, ALARM_KIND, dict(payload))

    # -- verdict -----------------------------------------------------------------

    def _verdict(
        self, true_value: float, total_sensors: int, duration_s: float
    ) -> RoundResult:
        cfg = self._config
        # Drop alarms about clusters whose data demonstrably reached the
        # base station are collision noise: refute them outright.
        alarms = [
            a
            for a in self._alarms.values()
            if not (
                a.reason is AlarmReason.DROPPED and a.cluster in self._bs_included
            )
        ]

        hard_suspects: Dict[int, Set[int]] = {}
        drop_suspects: Dict[int, Set[int]] = {}
        for alarm in alarms:
            bucket = (
                drop_suspects if alarm.reason is AlarmReason.DROPPED else hard_suspects
            )
            bucket.setdefault(alarm.suspect, set()).add(alarm.witness)

        suspect_counts = {
            suspect: len(witnesses)
            for suspect, witnesses in {**drop_suspects, **hard_suspects}.items()
        }
        for suspect, witnesses in hard_suspects.items():
            merged = witnesses | drop_suspects.get(suspect, set())
            suspect_counts[suspect] = len(merged)

        expected = self._expected_participants()
        contributors = self._bs_contributors
        participation = contributors / total_sensors if total_sensors else 0.0

        # Hard (value-tampering) alarms reject on their own. Drop alarms
        # are actionable only when data is actually missing: if the
        # contributor count matches the census within Th, every report
        # demonstrably arrived and drop alarms are collision noise — they
        # still feed suspect attribution for localization.
        count_short = abs(contributors - expected) > cfg.count_threshold
        rejected_by_alarm = any(
            len(w) >= ALARM_QUORUM_VALUE for w in hard_suspects.values()
        ) or (
            count_short
            and any(len(w) >= ALARM_QUORUM_DROP for w in drop_suspects.values())
        )

        if contributors == 0:
            verdict = Verdict.INSUFFICIENT
        elif cfg.integrity_mode == "none":
            verdict = Verdict.ACCEPTED  # privacy-only: nothing to attest
        elif rejected_by_alarm:
            verdict = Verdict.REJECTED_ALARM
        elif count_short:
            verdict = Verdict.REJECTED_MISMATCH
        else:
            verdict = Verdict.ACCEPTED

        value: Optional[float] = None
        accuracy = float("nan")
        if verdict is Verdict.ACCEPTED:
            value = self._aggregate.finalize(tuple(self._bs_totals))
            if true_value != 0:
                accuracy = value / true_value

        return RoundResult(
            verdict=verdict,
            value=value,
            raw_totals=tuple(self._bs_totals),
            contributors=contributors,
            census_participants=expected,
            true_value=true_value,
            accuracy=accuracy,
            alarms=alarms,
            clusters_formed=len(self._clustering.clusters),
            clusters_completed=len(self._exchange.completed_clusters),
            participation=participation,
            duration_s=duration_s,
            suspect_counts=suspect_counts,
        )

    def _expected_participants(self) -> int:
        restrict = self._config.restrict_to_clusters
        total = 0
        bs = self._tree.root
        for head, (size, active) in self._clustering.census_at_bs.items():
            if not active:
                continue
            if head in self._bs_aborted:
                continue  # the head itself reported the exchange failed
            if restrict is not None and head not in restrict and head != bs:
                continue
            total += size - 1 if head == bs else size
        return total
