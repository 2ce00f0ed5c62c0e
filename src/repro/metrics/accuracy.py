"""Aggregation-accuracy metrics.

The paper's accuracy metric is the ratio of the collected aggregate to
the true aggregate over *all* sensors (1.0 = lossless). COUNT accuracy is
equivalently the participation ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isnan
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class AccuracyResult:
    """Accuracy summary across repeated trials.

    Attributes
    ----------
    mean / std:
        Moments of the per-trial accuracy ratios.
    minimum / maximum:
        Range across trials.
    trials:
        Number of (valid) trials aggregated.
    rejected:
        Trials that produced no accepted value (excluded from moments).
    """

    mean: float
    std: float
    minimum: float
    maximum: float
    trials: int
    rejected: int


def summarize_accuracy(values: Sequence[Optional[float]]) -> AccuracyResult:
    """Fold per-trial accuracies (None = rejected round) into a summary."""
    valid: List[float] = [v for v in values if v is not None and not isnan(v)]
    rejected = len(values) - len(valid)
    if not valid:
        nan = float("nan")
        return AccuracyResult(nan, nan, nan, nan, trials=0, rejected=rejected)
    mean = sum(valid) / len(valid)
    variance = sum((v - mean) ** 2 for v in valid) / len(valid)
    return AccuracyResult(
        mean=mean,
        std=variance**0.5,
        minimum=min(valid),
        maximum=max(valid),
        trials=len(valid),
        rejected=rejected,
    )
