"""CSMA medium-access control with random backoff.

Each node owns one :class:`CsmaMac`. Outbound frames are queued; before
each transmission attempt the MAC senses the carrier, defers by a random
backoff while busy, and gives up after ``max_attempts`` tries (the frame
is dropped and counted — best-effort delivery, as in TAG-era WSN stacks;
reliability above the MAC is the protocols' problem, which is exactly why
the base station needs a loss-tolerance threshold ``Th``).

An initial random *desynchronization jitter* is applied to every enqueue
so that nodes triggered by the same event (e.g. an epoch boundary) do not
all sense an idle channel simultaneously and collide.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.errors import SimulationError
from repro.net.medium import WirelessMedium
from repro.net.packet import Packet
from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class MacParams:
    """CSMA tuning knobs.

    Attributes
    ----------
    initial_jitter_s:
        Uniform desynchronization delay applied when a frame is enqueued.
    backoff_min_s / backoff_max_s:
        Uniform backoff window when the carrier is sensed busy; the window
        doubles on each successive busy sense up to ``backoff_max_s``.
    max_attempts:
        Carrier-sense attempts before the frame is dropped.
    """

    initial_jitter_s: float = 0.005
    backoff_min_s: float = 0.001
    backoff_max_s: float = 0.064
    max_attempts: int = 8

    def __post_init__(self) -> None:
        if self.initial_jitter_s < 0:
            raise SimulationError("initial_jitter_s must be >= 0")
        if not 0 < self.backoff_min_s <= self.backoff_max_s:
            raise SimulationError("need 0 < backoff_min_s <= backoff_max_s")
        if self.max_attempts < 1:
            raise SimulationError("max_attempts must be >= 1")


@dataclass
class MacStats:
    """Per-node MAC statistics."""

    enqueued: int = 0
    sent: int = 0
    dropped: int = 0
    busy_senses: int = 0

    def snapshot(self) -> dict:
        """The counters as a plain dict (metrics-registry provider)."""
        return {
            "enqueued": self.enqueued,
            "sent": self.sent,
            "dropped": self.dropped,
            "busy_senses": self.busy_senses,
        }

    def reset(self) -> None:
        """Zero all counters (new accounting period, same MAC)."""
        self.enqueued = 0
        self.sent = 0
        self.dropped = 0
        self.busy_senses = 0


class CsmaMac:
    """Carrier-sense MAC instance for a single node.

    Parameters
    ----------
    sim, medium:
        Kernel and channel this MAC operates on.
    node_id:
        Owning node.
    params:
        Tuning knobs (shared across nodes normally).
    """

    def __init__(
        self,
        sim: Simulator,
        medium: WirelessMedium,
        node_id: int,
        params: Optional[MacParams] = None,
    ) -> None:
        self._sim = sim
        self._medium = medium
        self._radio = medium.radio
        self._node_id = node_id
        self._params = params if params is not None else MacParams()
        self._queue: Deque[Tuple[Packet, int]] = deque()
        self._busy = False
        self._rng = sim.rng.stream(f"mac.{node_id}")
        self.stats = MacStats()

    @property
    def node_id(self) -> int:
        """Owning node id."""
        return self._node_id

    @property
    def queue_length(self) -> int:
        """Frames waiting to be transmitted."""
        return len(self._queue)

    def send(self, packet: Packet) -> None:
        """Enqueue a frame for transmission after desync jitter."""
        if packet.src != self._node_id:
            raise SimulationError(
                f"MAC of node {self._node_id} asked to send frame from {packet.src}"
            )
        self.stats.enqueued += 1
        self._queue.append((packet, 0))
        if not self._busy:
            self._busy = True
            jitter = self._rng.uniform(0.0, self._params.initial_jitter_s)
            self._sim.schedule(jitter, self._attempt)

    # -- internal ------------------------------------------------------------

    def _attempt(self) -> None:
        if not self._queue:
            self._busy = False
            return
        packet, attempts = self._queue[0]
        if self._medium.carrier_busy(self._node_id):
            self.stats.busy_senses += 1
            attempts += 1
            if attempts >= self._params.max_attempts:
                self._queue.popleft()
                self.stats.dropped += 1
                trace = self._sim.trace
                if trace.on:
                    trace.emit(
                        "mac.drop",
                        f"node {self._node_id} dropped {packet.kind}",
                        node=self._node_id,
                        kind=packet.kind,
                    )
                self._schedule_next(0.0)
                return
            self._queue[0] = (packet, attempts)
            window = min(
                self._params.backoff_min_s * (2**attempts),
                self._params.backoff_max_s,
            )
            backoff = self._rng.uniform(self._params.backoff_min_s, window)
            self._sim.schedule(backoff, self._attempt)
            return
        self._queue.popleft()
        self.stats.sent += 1
        self._medium.transmit(self._node_id, packet)
        # Wait out our own airtime plus a small gap before the next frame.
        gap = self._radio.airtime(packet) + self._rng.uniform(
            0.0, self._params.backoff_min_s
        )
        self._schedule_next(gap)

    def _schedule_next(self, delay: float) -> None:
        if self._queue:
            self._sim.schedule(delay, self._attempt)
        else:
            self._busy = False
