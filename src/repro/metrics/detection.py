"""Pollution-detection and false-alarm statistics (experiment F6)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import ReproError

if TYPE_CHECKING:  # avoid a metrics -> core import cycle at runtime
    from repro.core.results import RoundResult


@dataclass(frozen=True)
class DetectionStats:
    """Detection/false-alarm ratios across trials.

    Attributes
    ----------
    attacked_rounds / detected:
        Rounds with an active attacker, and how many were rejected.
    clean_rounds / false_alarms:
        Attack-free rounds, and how many were (wrongly) rejected.
    """

    attacked_rounds: int
    detected: int
    clean_rounds: int
    false_alarms: int

    def __post_init__(self) -> None:
        if self.detected > self.attacked_rounds or self.false_alarms > self.clean_rounds:
            raise ReproError("detection counts exceed round counts")
        if min(
            self.attacked_rounds, self.detected, self.clean_rounds, self.false_alarms
        ) < 0:
            raise ReproError("detection counts must be non-negative")

    @property
    def detection_ratio(self) -> float:
        """Fraction of attacked rounds that were rejected."""
        if self.attacked_rounds == 0:
            return float("nan")
        return self.detected / self.attacked_rounds

    @property
    def false_alarm_ratio(self) -> float:
        """Fraction of clean rounds that were rejected."""
        if self.clean_rounds == 0:
            return 0.0
        return self.false_alarms / self.clean_rounds

    @classmethod
    def from_rounds(
        cls,
        attacked: Sequence["RoundResult"],
        clean: Sequence["RoundResult"],
    ) -> "DetectionStats":
        """Fold round results into detection statistics."""
        return cls(
            attacked_rounds=len(attacked),
            detected=sum(1 for r in attacked if r.detected_pollution),
            clean_rounds=len(clean),
            false_alarms=sum(1 for r in clean if r.detected_pollution),
        )
