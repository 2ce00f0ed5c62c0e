"""TAG-style epoch scheduling.

TAG divides each aggregation epoch into depth slots: nodes at the deepest
level report first, then each shallower level, so every parent has heard
its children before its own slot. We reproduce that schedule: a node at
depth ``d`` (root depth 0, max depth ``D``) transmits its partial at

    ``epoch_start + (D - d + 1) * slot``

with per-node jitter inside the slot to decorrelate MAC contention.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AggregationError


@dataclass(frozen=True)
class EpochSchedule:
    """Send-time schedule for one aggregation epoch.

    Attributes
    ----------
    epoch_start:
        Virtual time at which the epoch begins.
    slot_s:
        Seconds allotted per depth level.
    max_depth:
        Deepest level in the tree this epoch serves.
    """

    epoch_start: float
    slot_s: float
    max_depth: int

    def __post_init__(self) -> None:
        if self.slot_s <= 0:
            raise AggregationError(f"slot_s must be positive, got {self.slot_s}")
        if self.max_depth < 0:
            raise AggregationError(f"max_depth must be >= 0, got {self.max_depth}")

    def send_time(self, depth: int, jitter: float = 0.0) -> float:
        """When a node at ``depth`` transmits its partial.

        ``jitter`` must lie in [0, 1) and places the transmission inside
        the slot.

        Raises
        ------
        AggregationError
            For depths outside [0, max_depth] or jitter outside [0, 1).
        """
        if not 0 <= depth <= self.max_depth:
            raise AggregationError(
                f"depth {depth} outside [0, {self.max_depth}]"
            )
        if not 0.0 <= jitter < 1.0:
            raise AggregationError(f"jitter must be in [0, 1), got {jitter}")
        slots_from_start = self.max_depth - depth + 1
        return self.epoch_start + (slots_from_start + jitter * 0.8) * self.slot_s

    @property
    def epoch_end(self) -> float:
        """When the root has heard every level (end of the root's slot)."""
        return self.epoch_start + (self.max_depth + 2) * self.slot_s
