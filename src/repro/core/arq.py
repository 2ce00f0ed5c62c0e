"""Stop-and-wait hop ARQ, shared by every acknowledged protocol hop.

Census records, shares, F-values, reports and slices cross a hop the
same way. The sender transmits; while no ack for ``(sender, key)`` has
arrived, it sends again ``ACK_TIMEOUT_S * (base + 0.5 * attempt)`` after
each attempt (plus up to ``JITTER_S`` more, for an ARQ given an ``rng``),
at most ``RETRIES`` times. The receiver acks every copy
(the lost frame may have been the ack) but takes only the first. Ack
frames stay with the phases: their kinds and payloads differ per hop,
and witnesses overhear report acks.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Optional, Set, Tuple

from numpy.random import Generator

from repro.net.transport import Transport

#: The first retransmit of a hop waits ``ACK_TIMEOUT_S * base``; each
#: later one waits half an ``ACK_TIMEOUT_S`` longer than the one before.
ACK_TIMEOUT_S = 0.35
#: Retransmissions per hop after the first send.
RETRIES = 3
#: An ARQ given an ``rng`` stretches each wait by a uniform draw up to this.
JITTER_S = ACK_TIMEOUT_S * 0.5


class StopAndWait:
    """One phase instance's ARQ state: the acked ``(sender, key)`` pairs,
    the retry timers with their attempt counters, and the ``(receiver,
    key)`` pairs already taken.

    ``base`` scales the first wait: 1.0 inside a cluster, 1.5 up the
    tree. With an ``rng`` every wait gets a uniform extra of up to
    :data:`JITTER_S`; the census and report hops up the tree pass one. Their frames
    near the root are long, and two hidden senders whose long frames
    collided once would otherwise collide on every retry, each retry
    being at the same offset from its first send. An ack stays recorded for the
    instance's life, so frames keyed alike (a report and an abort of one
    cluster) share one flag.
    """

    __slots__ = ("_sim", "_base", "_rng", "_acked", "_taken")

    def __init__(
        self, transport: Transport, base: float, rng: Optional[Generator] = None
    ) -> None:
        self._sim = transport.sim
        self._base = base
        self._rng = rng
        self._acked: Set[Tuple[int, Hashable]] = set()
        self._taken: Set[Tuple[int, Hashable]] = set()

    def send(
        self,
        sender: int,
        key: Hashable,
        transmit: Callable[..., Any],
        args: Tuple[Any, ...],
        attempt: int = 0,
    ) -> None:
        """Call ``transmit(*args)`` (a transport's ``send`` or
        ``broadcast``) now, and arm the retry timer of ``attempt``."""
        transmit(*args)
        if attempt < RETRIES:
            timeout = ACK_TIMEOUT_S * (self._base + 0.5 * attempt)
            if self._rng is not None:
                timeout += float(self._rng.uniform(0.0, JITTER_S))
            self._sim.schedule(
                timeout, self._expire, args=(sender, key, transmit, args, attempt)
            )

    def _expire(
        self,
        sender: int,
        key: Hashable,
        transmit: Callable[..., Any],
        args: Tuple[Any, ...],
        attempt: int,
    ) -> None:
        if (sender, key) not in self._acked:
            self.send(sender, key, transmit, args, attempt + 1)

    def ack(self, sender: int, key: Hashable) -> None:
        """Record the ack for ``(sender, key)``: its timers stop resending."""
        self._acked.add((sender, key))

    def take(self, receiver: int, key: Hashable) -> bool:
        """True the first time ``receiver`` takes ``key``; False for a
        retransmission it already took."""
        pair = (receiver, key)
        if pair in self._taken:
            return False
        self._taken.add(pair)
        return True
