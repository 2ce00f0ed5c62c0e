"""Unit tests for accuracy, privacy, detection stats and rendering."""

import math

import pytest

from repro.errors import ReproError
from repro.metrics.accuracy import summarize_accuracy
from repro.metrics.detection import DetectionStats
from repro.metrics.privacy import DisclosureStats
from repro.metrics.report import render_table


class TestAccuracy:
    def test_summarize_with_rejections(self):
        summary = summarize_accuracy([0.9, 1.0, None, 0.8])
        assert summary.trials == 3
        assert summary.rejected == 1
        assert summary.mean == pytest.approx(0.9)
        assert summary.minimum == pytest.approx(0.8)

    def test_summarize_all_rejected(self):
        summary = summarize_accuracy([None, None])
        assert summary.trials == 0
        assert summary.rejected == 2
        assert math.isnan(summary.mean)


class TestDisclosure:
    def test_from_counts(self):
        stats = DisclosureStats.from_counts(5, 100)
        assert stats.probability == pytest.approx(0.05)
        assert stats.stderr > 0

    def test_zero_exposed(self):
        stats = DisclosureStats.from_counts(0, 0)
        assert stats.probability == 0.0

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ReproError):
            DisclosureStats.from_counts(5, 3)
        with pytest.raises(ReproError):
            DisclosureStats.from_counts(-1, 3)

    def test_pooled(self):
        parts = [
            DisclosureStats.from_counts(1, 10),
            DisclosureStats.from_counts(3, 10),
        ]
        pooled = DisclosureStats.pooled(parts)
        assert pooled.disclosed == 4
        assert pooled.exposed == 20


class TestDetectionStats:
    def test_ratios(self):
        stats = DetectionStats(
            attacked_rounds=10, detected=9, clean_rounds=10, false_alarms=1
        )
        assert stats.detection_ratio == pytest.approx(0.9)
        assert stats.false_alarm_ratio == pytest.approx(0.1)

    def test_no_attacked_rounds_is_nan(self):
        stats = DetectionStats(0, 0, 5, 0)
        assert math.isnan(stats.detection_ratio)

    def test_inconsistent_rejected(self):
        with pytest.raises(ReproError):
            DetectionStats(1, 2, 0, 0)
        with pytest.raises(ReproError):
            DetectionStats(1, -1, 0, 0)


class TestRendering:
    def test_table_alignment_and_missing(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10}]
        text = render_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert "-" in lines[-1]  # missing cell placeholder

    def test_empty_table(self):
        assert "empty" in render_table([])

    def test_late_appearing_keys_get_columns(self):
        """A key first seen in a later row (e.g. a failure-row field)
        must not be silently dropped from the table."""
        rows = [{"a": 1}, {"a": 2, "error": "boom"}, {"late": True}]
        text = render_table(rows)
        header = text.splitlines()[0]
        assert "error" in header and "late" in header
        assert header.index("a") < header.index("error") < header.index("late")
        assert "boom" in text

    def test_float_formatting(self):
        rows = [{"v": 0.000012345}, {"v": float("nan")}, {"v": 123456.0}]
        text = render_table(rows)
        assert "e-" in text  # tiny value in scientific notation
        assert "nan" in text
