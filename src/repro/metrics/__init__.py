"""Measurement layer: counters and the evaluation metrics.

Everything the reconstructed figures report is computed here:
message/byte counters per node and message kind
(:mod:`repro.metrics.counters`), aggregation accuracy
(:mod:`repro.metrics.accuracy`), empirical privacy disclosure
(:mod:`repro.metrics.privacy`), pollution-detection ratios
(:mod:`repro.metrics.detection`), and plain-text table/chart rendering
(:mod:`repro.metrics.report`).
"""

from repro.metrics.accuracy import AccuracyResult
from repro.metrics.counters import MessageCounters
from repro.metrics.detection import DetectionStats
from repro.metrics.privacy import DisclosureStats
from repro.metrics.registry import MetricsRegistry
from repro.metrics.report import Series, render_chart, render_table

__all__ = [
    "MessageCounters",
    "MetricsRegistry",
    "AccuracyResult",
    "DisclosureStats",
    "DetectionStats",
    "Series",
    "render_table",
    "render_chart",
]
