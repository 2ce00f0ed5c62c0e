"""Stop-and-wait hop ARQ, shared by every acknowledged protocol hop.

Census records, shares, F-values, reports and slices cross a hop the
same way. The sender transmits; while no ack for ``(sender, key)`` has
arrived, it sends again ``ack_timeout_s * (base + 0.5 * attempt)`` after
each attempt, at most ``retries`` times. The receiver acks every copy
(the lost frame may have been the ack) but takes only the first. Ack
frames stay with the phases: their kinds and payloads differ per hop,
and witnesses overhear report acks.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Set, Tuple

from repro.net.transport import Transport


class StopAndWait:
    """One phase instance's ARQ state: the acked ``(sender, key)`` pairs,
    the retry timers with their attempt counters, and the ``(receiver,
    key)`` pairs already taken.

    ``base`` scales the first wait: 1.0 inside a cluster, 1.5 up the
    tree. ``retries`` counts retransmissions; 0 sends once. An ack stays
    recorded for the instance's life, so frames keyed alike (a report
    and an abort of one cluster) share one flag.
    """

    __slots__ = ("_sim", "_ack_timeout_s", "_retries", "_base", "_acked", "_taken")

    def __init__(
        self, transport: Transport, ack_timeout_s: float, retries: int, base: float
    ) -> None:
        self._sim = transport.sim
        self._ack_timeout_s = ack_timeout_s
        self._retries = retries
        self._base = base
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
        if attempt < self._retries:
            timeout = self._ack_timeout_s * (self._base + 0.5 * attempt)
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
