"""TAG: the Tiny AGgregation baseline (Madden et al., OSDI 2002).

This is the comparison scheme of the paper's evaluation — plain
in-network aggregation with **no privacy and no integrity**: every node
sends its partial state record to its tree parent in cleartext during its
depth slot; parents fold children's partials into their own before their
slot arrives; the base station finalizes.

Losses come from MAC collisions and orphaned nodes, exactly the effects
the accuracy figures measure. Partials piggyback a contributor count so
participation can be reported independently of the aggregate value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.aggregation.epoch import EpochSchedule
from repro.aggregation.functions import AdditiveAggregate
from repro.aggregation.tree import TreeBuildResult
from repro.errors import AggregationError
from repro.net.packet import Packet
from repro.net.transport import Transport

#: Message kind for TAG partial state records.
PARTIAL_KIND = "tag_partial"
#: Epoch slot length per depth level, seconds.
SLOT_S = 0.5


@dataclass
class TagResult:
    """Outcome of one TAG epoch.

    Attributes
    ----------
    value:
        The finalized aggregate at the base station.
    totals:
        Raw component sums the value was decoded from.
    contributors:
        Number of sensor readings folded into ``value``.
    eligible:
        Sensors that held a reading and were attached to the tree.
    true_value:
        Ground-truth aggregate over *all* readings (lossless).
    accuracy:
        ``value / true_value`` (the paper's accuracy metric; 1.0 = ideal).
    duration_s:
        Virtual time from epoch start to finalization.
    """

    value: float
    totals: Tuple[int, ...]
    contributors: int
    eligible: int
    true_value: float
    accuracy: float
    duration_s: float


@dataclass
class _NodeState:
    """Per-node accumulation during an epoch."""

    partial: Tuple[int, ...]
    contributors: int = 0
    sent: bool = False
    received_from: List[int] = field(default_factory=list)


class TagProtocol:
    """One TAG instance bound to a network, tree and aggregate function.

    Parameters
    ----------
    stack:
        The radio network.
    tree:
        A built aggregation tree (see
        :func:`repro.aggregation.tree.build_aggregation_tree`).
    aggregate:
        The additive aggregate to compute.
    """

    def __init__(
        self,
        stack: Transport,
        tree: TreeBuildResult,
        aggregate: AdditiveAggregate,
    ) -> None:
        self._stack = stack
        self._tree = tree
        self._aggregate = aggregate
        self._states: Dict[int, _NodeState] = {}
        self._rng = stack.sim.rng.stream("tag.jitter")

    def run(self, readings: Dict[int, float]) -> TagResult:
        """Execute one epoch over ``readings`` (sensor id -> value).

        Returns the finalized :class:`TagResult`. Sensors absent from the
        tree (orphans) cannot contribute; the base station's own reading,
        if present, is folded in locally.

        Raises
        ------
        AggregationError
            If ``readings`` is empty.
        """
        if not readings:
            raise AggregationError("TAG epoch needs at least one reading")
        initial = {
            node: (self._aggregate.components(readings[node]), 1)
            for node in self._tree.parents
            if node in readings
        }
        true_value = self._aggregate.true_value(list(readings.values()))
        return self.run_encoded(initial, true_value)

    def run_encoded(
        self,
        initial: Dict[int, Tuple[Tuple[int, ...], int]],
        true_value: float,
    ) -> TagResult:
        """Execute one epoch over **pre-encoded** partials.

        ``initial`` maps node id -> (component vector, contributor
        count). Used directly by privacy front-ends (e.g. the slicing
        scheme) whose per-node inputs are already in component space.

        Raises
        ------
        AggregationError
            If ``initial`` is empty or a vector has the wrong arity.
        """
        if not initial:
            raise AggregationError("TAG epoch needs at least one partial")
        sim = self._stack.sim
        root = self._tree.root
        schedule = EpochSchedule(
            epoch_start=sim.now,
            slot_s=SLOT_S,
            max_depth=self._tree.max_depth(),
        )

        self._states = {}
        eligible = 0
        for node in self._tree.parents:
            if node in initial:
                partial, contributors = initial[node]
                if len(partial) != self._aggregate.arity:
                    raise AggregationError(
                        f"partial arity {len(partial)} != "
                        f"{self._aggregate.arity} at node {node}"
                    )
                partial = tuple(partial)
                if node != root:
                    eligible += 1
            else:
                partial = self._aggregate.identity()
                contributors = 0
            self._states[node] = _NodeState(partial=partial, contributors=contributors)

        on_partial = self._on_partial
        for node in self._tree.parents:
            self._stack.register_handler(node, PARTIAL_KIND, on_partial)

        for node, depth in self._tree.depths.items():
            if node == root:
                continue
            at = schedule.send_time(depth, float(self._rng.random()))
            sim.schedule_at(at, self._send_partial, args=(node,))

        sim.run(until=schedule.epoch_end)

        state = self._states[root]
        value = self._aggregate.finalize(state.partial)
        accuracy = value / true_value if true_value != 0 else float("nan")
        return TagResult(
            value=value,
            totals=tuple(state.partial),
            contributors=state.contributors,
            eligible=eligible,
            true_value=true_value,
            accuracy=accuracy,
            duration_s=sim.now - schedule.epoch_start,
        )

    # -- internal ------------------------------------------------------------

    def _on_partial(self, node_id: int, packet: Packet) -> None:
        state = self._states.get(node_id)
        if state is None or state.sent:
            return  # late partial after our slot: lost, as in TAG
        components = tuple(packet.payload["components"])
        state.partial = self._aggregate.combine(state.partial, components)
        state.contributors += int(packet.payload["contributors"])
        state.received_from.append(packet.src)

    def _send_partial(self, node_id: int) -> None:
        state = self._states[node_id]
        state.sent = True
        parent = self._tree.parents[node_id]
        if parent is None:
            return
        self._stack.send(
            node_id,
            parent,
            PARTIAL_KIND,
            {
                "components": list(state.partial),
                "contributors": state.contributors,
            },
        )
