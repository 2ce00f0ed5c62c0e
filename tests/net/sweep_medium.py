"""A zero-distance :class:`~repro.net.medium.WirelessMedium` with
per-node receive callbacks, for medium and MAC unit tests.

The medium hands every frame to one sweep. With every distance zero,
each clean reception is a direct ``sweep(packet, t_end, ((0.0, 0,
receiver),), 0, 0)`` call at the frame's end time, in adjacency order;
:class:`SweepReceivers` turns those calls into one callback per node.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.net.medium import DeliveryEntry, WirelessMedium
from repro.net.packet import Packet
from repro.net.radio import RadioParams
from repro.sim.kernel import Simulator
from repro.topology.graphs import LinkGraph


class SweepReceivers:
    """The medium's sweep, dispatching each reception to its node's
    callback. Every reception counts in ``stats.deliveries``, as the
    sweep contract asks, whether or not the node has a callback."""

    def __init__(self, medium: WirelessMedium) -> None:
        self._medium = medium
        self._callbacks: Dict[int, Callable[[Packet], None]] = {}
        medium.attach_sweep(self._sweep)

    def attach(self, node_id: int, callback: Callable[[Packet], None]) -> None:
        self._callbacks[node_id] = callback

    def _sweep(
        self,
        packet: Packet,
        start: float,
        entries: Sequence[DeliveryEntry],
        first: int,
        index: int,
    ) -> None:
        (_, _, receiver), = entries[index:]  # distance zero: one per call
        self._medium.stats.deliveries += 1
        callback = self._callbacks.get(receiver)
        if callback is not None:
            callback(packet)


def zero_distance_medium(
    sim: Simulator, adjacency: Mapping[int, Sequence[int]], radio: RadioParams
) -> Tuple[WirelessMedium, SweepReceivers]:
    """A medium over ``adjacency`` where every pair is zero meters apart,
    and the receivers object its frames are delivered through. Ids
    missing from ``adjacency`` below its largest become isolated nodes;
    rows keep their given order."""
    rows = [tuple(adjacency.get(node, ())) for node in range(max(adjacency) + 1)]
    indices = np.array([peer for row in rows for peer in row], dtype=np.int32)
    links = LinkGraph(
        indptr=np.cumsum([0] + [len(row) for row in rows], dtype=np.int64),
        indices=indices,
        lengths=np.zeros(len(indices)),
    )
    medium = WirelessMedium(sim, links, radio)
    return medium, SweepReceivers(medium)
