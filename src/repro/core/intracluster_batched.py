"""In-process share exchange — Phase III of ``engine="batched"``.

:class:`BatchedShareExchange` runs Phase III for every cluster that
survived :class:`~repro.core.intracluster.IntraClusterExchange`'s census
in one vectorized pass per cluster size instead of as per-frame
simulator events. Shares, F-values and sums come from
:func:`~repro.core.shares.batched_cluster_shares`; member timelines are
closed-form under a reliable control plane (every frame delivered once,
one hop :data:`~repro.core.replay.EPS`, every member in range of its
head); the frames the scalar exchange would send are replayed at their
scalar-equivalent instants through :class:`~repro.core.replay.FrameReplay`.

On a lossless transport the outcome, share log and per-kind byte totals
equal the scalar exchange's; on lossy ones no ARQ retransmit is
replayed and no frame is lost. The contract is in docs/PERF.md
("Batched share exchange") and ``tests/core/test_exchange_batched.py``.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aggregation.functions import AdditiveAggregate
from repro.core.arq import ACK_TIMEOUT_S
from repro.core.config import IcpdaConfig
from repro.core.field import PrimeField
from repro.core.intracluster import (
    FSET_KIND,
    FVALUE_ACK_KIND,
    FVALUE_KIND,
    SHARE_ACK_KIND,
    SHARE_KIND,
    SHARE_RELAY_KIND,
    WINDOW_EXCHANGE_S,
    ClusterExchangeState,
    ExchangeResult,
    ShareTransmission,
)
from repro.core.replay import EPS, FrameReplay
from repro.core.shares import batched_cluster_shares
from repro.crypto.linksec import CIPHERTEXT_OVERHEAD_BYTES, LinkSecurity
from repro.net.packet import (
    BROADCAST,
    HEADER_BYTES,
    INT32_LIMIT,
    INT_BYTES,
    LONG_BYTES,
)
from repro.net.transport import Transport

# Wire sizes, as payload_size counts the scalar exchange's payloads.
_SHARE_BYTES = HEADER_BYTES + 2 * INT_BYTES + CIPHERTEXT_OVERHEAD_BYTES  # + values
_SHARE_ACK_BYTES = HEADER_BYTES + 2 * INT_BYTES
_FVALUE_BYTES = HEADER_BYTES + 3 * INT_BYTES  # + values
_FVALUE_ACK_BYTES = HEADER_BYTES + INT_BYTES
_FSET_BYTES = HEADER_BYTES + INT_BYTES  # + one seed and one F-value per member
_SMALL = np.uint64(INT32_LIMIT)

#: One ``exchange.*`` trace record: (virtual instant, category, message,
#: fields); emitted in time order once the phase is decided.
_Event = Tuple[float, str, str, dict]


def _value_bytes(values: np.ndarray) -> np.ndarray:
    """Wire size of each (non-negative) field element, as
    :func:`~repro.net.packet.payload_size` counts it."""
    return np.where(values < _SMALL, INT_BYTES, LONG_BYTES)


def _share_log(send_at: np.ndarray, groups: List[tuple]) -> List[ShareTransmission]:
    """The scalar exchange's share log from each cluster size's columns
    (members, heads, ``sent``, ``hears``, send slots): one entry per
    share sent, senders in send order (ties by slot), each sender's
    shares in participant order, relayed by the head where the
    recipient is out of the sender's range."""
    rank = np.empty(len(send_at), dtype=np.int64)
    rank[np.argsort(send_at, kind="stable")] = np.arange(len(send_at))
    columns = []
    for members, heads, sent, hears, slots in groups:
        c, i, j = np.nonzero(sent)
        relay = np.where(hears[c, i, j], -1, heads[c])
        columns.append((rank[slots[c, i]], members[c, i], members[c, j], relay))
    if not columns:
        return []
    key, origin, recipient, relay = (np.concatenate(column) for column in zip(*columns))
    order = np.argsort(key, kind="stable")
    return [
        ShareTransmission(a, b, ((a, b),) if via < 0 else ((a, via), (via, b)))
        for a, b, via in zip(
            origin[order].tolist(), recipient[order].tolist(), relay[order].tolist()
        )
    ]


class BatchedShareExchange:
    """Phase III for a list of live clusters, decided in-process.

    Parameters mirror :class:`~repro.core.intracluster.IntraClusterExchange`;
    ``rng`` is its ``exchange.{round}`` stream.
    """

    def __init__(
        self,
        stack: Transport,
        config: IcpdaConfig,
        linksec: LinkSecurity,
        aggregate: AdditiveAggregate,
        readings: Dict[int, float],
        field_: PrimeField,
        rng: np.random.Generator,
        round_id: int,
    ) -> None:
        self._stack = stack
        self._config = config
        self._linksec = linksec
        self._aggregate = aggregate
        self._readings = readings
        self._field = field_
        self._rng = rng
        self._mask_rng = stack.sim.rng.stream(f"exchange.batched.{round_id}")
        self._replay: Optional[FrameReplay] = None
        self._deadline = 0.0

    def run(
        self, states: Sequence[ClusterExchangeState], result: ExchangeResult
    ) -> None:
        """Exchange shares within ``states`` (census order, none aborted),
        fill ``result``, replay the frames and advance the clock to the
        end of the exchange window."""
        sim = self._stack.sim
        t0 = sim.now
        self._deadline = t0 + WINDOW_EXCHANGE_S
        self._replay = FrameReplay(self._stack, t0)

        # Same draws, same order as the scalar run(): one send delay per
        # member, cluster by cluster.
        first = np.cumsum([0] + [len(s.participants) for s in states])
        send_at = t0 + self._rng.uniform(
            0.1, WINDOW_EXCHANGE_S * 0.25, size=int(first[-1])
        )

        by_size: Dict[int, List[int]] = {}
        for index, state in enumerate(states):
            by_size.setdefault(len(state.participants), []).append(index)
        logs: List[tuple] = []
        events: List[_Event] = []
        completions = []
        for size, indices in by_size.items():
            positions = first[indices][:, None] + np.arange(size)
            completions.append(
                self._run_group(
                    [states[index] for index in indices],
                    send_at[positions],
                    positions,
                    logs,
                    events,
                    result,
                )
            )

        # The log is built only if someone reads it (the privacy audits).
        result.log_later(partial(_share_log, send_at, logs))
        self._fset_repeats(completions)
        for _at, category, message, fields in sorted(events, key=lambda e: e[0]):
            sim.trace.emit(category, message, **fields)

        self._replay.schedule()
        sim.run(until=self._deadline)
        self._replay = None

    # -- one cluster size ------------------------------------------------------

    def _run_group(
        self,
        states: List[ClusterExchangeState],
        send_at: np.ndarray,
        positions: np.ndarray,
        logs: List[tuple],
        events: List[_Event],
        result: ExchangeResult,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every ``m``-member cluster at once; returns the clusters that
        published an F-set as (completion time, head, F-set size)."""
        count, m = send_at.shape
        members = np.array([s.participants for s in states], dtype=np.int64)
        heads = np.array([s.head for s in states], dtype=np.int64)
        head_pos = np.argmax(members == heads[:, None], axis=1)
        is_head = np.arange(m) == head_pos[:, None]
        batch = batched_cluster_shares(
            self._field, members, self._components(states, m), self._mask_rng
        )
        hears, keyed = self._links(members)
        eye = np.eye(m, dtype=bool)

        # Share (i -> j) goes direct when j hears i, else via the head. A
        # member sends in participant order and stops at its first
        # recipient without a shared key, which aborts the cluster.
        sent = np.logical_and.accumulate(keyed, axis=2) & ~eye
        direct = sent & hears
        relayed = sent & ~hears
        arrive = send_at[:, :, None] + np.where(hears, EPS, 2 * EPS)
        arrive[:, eye] = send_at  # a member's own share, at its send time
        full = sent | eye
        holds = full.all(axis=1)  # (C, m): every share reached member j
        held_at = np.where(full, arrive, -np.inf).max(axis=1)

        share_bytes = _SHARE_BYTES + _value_bytes(batch.shares).sum(axis=2)
        f_bytes = _value_bytes(batch.fvalues).sum(axis=1)  # (C, m)
        src = members[:, :, None]
        dst = members[:, None, :]
        head = heads[:, None, None]
        at = send_at[:, :, None]
        frame = self._frames
        frame(SHARE_KIND, direct, at, src, dst, share_bytes)
        frame(SHARE_ACK_KIND, direct, at + EPS, dst, src, _SHARE_ACK_BYTES)
        frame(SHARE_RELAY_KIND, relayed, at, src, head, share_bytes)
        frame(SHARE_KIND, relayed, at + EPS, head, dst, share_bytes)
        frame(SHARE_ACK_KIND, relayed, at + 2 * EPS, dst, head, _SHARE_ACK_BYTES)
        frame(SHARE_ACK_KIND, relayed, at + 3 * EPS, head, src, _SHARE_ACK_BYTES)
        # Each holder broadcasts F(x_j); the head acks members' F-values
        # and repeats its own once.
        fvalue_bytes = _FVALUE_BYTES + f_bytes
        frame(FVALUE_KIND, holds, held_at, members, BROADCAST, fvalue_bytes)
        frame(
            FVALUE_ACK_KIND,
            holds & ~is_head,
            held_at + EPS,
            heads[:, None],
            members,
            _FVALUE_ACK_BYTES,
        )
        frame(
            FVALUE_KIND,
            holds & is_head,
            held_at + ACK_TIMEOUT_S,
            members,
            BROADCAST,
            fvalue_bytes,
        )

        # The head completes once it holds every F-value; it hears its
        # members' broadcasts one hop after they publish.
        done_at = np.where(is_head, held_at, held_at + EPS).max(axis=1)
        failing = ~keyed.all(axis=2)  # (C, m): members that hit a gap
        aborted = failing.any(axis=1)
        done = ~aborted & (done_at <= self._deadline)
        # Witnesses: members that overhear every F-value, plus (witnessed
        # mode) every member that hears the head's F-set.
        recovers = (hears | eye).all(axis=1)
        published = np.zeros_like(done)
        fset_bytes = _FSET_BYTES + (INT_BYTES + f_bytes).sum(axis=1)
        if self._config.integrity_mode == "witnessed":
            recovers |= hears[np.arange(count), head_pos] & ~is_head
            published = done
            frame(FSET_KIND, done, done_at, heads, BROADCAST, fset_bytes)

        logs.append((members, heads, sent, hears, positions))
        sums = batch.sums.tolist()
        first_gap = np.argmin(keyed, axis=2).tolist()
        for c, state in enumerate(states):
            if aborted[c]:
                state.aborted_reason = "no_shared_key"
                for i in np.flatnonzero(failing[c]).tolist():
                    member = state.participants[i]
                    recipient = state.participants[first_gap[c][i]]
                    events.append(
                        (
                            float(send_at[c, i]),
                            "exchange.abort",
                            f"cluster {state.head}: no key {member}->{recipient}",
                            {"head": state.head},
                        )
                    )
                continue
            if not done[c]:
                continue  # past the window: times out, as in scalar
            cluster_sums = tuple(sums[c])
            state.cluster_sums = cluster_sums
            state.completed = True
            for member, witness in zip(state.participants, recovers[c].tolist()):
                if witness:
                    result.witness_sums[member] = cluster_sums
            events.append(
                (
                    float(done_at[c]),
                    "exchange.complete",
                    f"cluster {state.head} recovered its aggregate",
                    {"head": state.head, "contributors": state.contributors},
                )
            )
        return done_at[published], heads[published], fset_bytes[published]

    def _components(self, states: List[ClusterExchangeState], m: int) -> np.ndarray:
        aggregate = self._aggregate
        identity = aggregate.identity()
        components = np.empty((len(states), m, aggregate.arity), dtype=np.int64)
        for c, state in enumerate(states):
            for i, member in enumerate(state.participants):
                reading = self._readings.get(member)
                components[c, i] = (
                    aggregate.components(reading) if reading is not None else identity
                )
        return components

    def _links(self, members: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``hears[c, i, j]``: member j is in member i's radio range;
        ``keyed[c, i, j]``: link (i, j) can be secured (diagonal True)."""
        neighbors = self._stack.neighbors
        can_secure = self._linksec.can_secure
        hears: List[bool] = []
        keyed: List[bool] = []
        for row in members.tolist():
            for a in row:
                audible = neighbors(a)
                hears.extend([b in audible for b in row])
                keyed.extend([a == b or can_secure(a, b) for b in row])
        m = members.shape[1]
        shape = (len(members), m, m)
        return np.array(hears).reshape(shape), np.array(keyed).reshape(shape)

    # -- replay ----------------------------------------------------------------

    def _frames(self, kind: str, mask, at, src, dst, size) -> None:
        """Record the frames selected by ``mask`` (the other columns
        broadcast against it) that fall within the window — scalar
        events past it never fire inside the phase."""
        keep = mask & (at <= self._deadline)
        self._replay.record_many(
            kind,
            *(np.broadcast_to(column, keep.shape)[keep] for column in (at, src, dst, size)),
        )

    def _fset_repeats(self, completions) -> None:
        """Each head that published an F-set repeats it 0.3–0.6 s later;
        the jitter draws follow completion order, as in scalar."""
        if not completions:
            return
        done_at, heads, sizes = (np.concatenate(column) for column in zip(*completions))
        order = np.lexsort((heads, done_at))
        at = done_at[order] + (0.3 + self._rng.uniform(0.0, 0.3, size=len(order)))
        self._frames(FSET_KIND, True, at, heads[order], BROADCAST, sizes[order])
