"""Ablation A1: witness fraction vs detection.

Expected shape: detection degrades gracefully as fewer members monitor
their head; full witnessing detects (essentially) always, and even 50%
witnessing catches most consistent-own tampers (any single sum-aware
member suffices).
"""

from benchmarks.conftest import emit
from repro.experiments.ablation import witness_spec
from repro.experiments.engine import run_serial
from repro.metrics.report import render_table


def test_a1_witness_fraction(benchmark):
    rows = benchmark.pedantic(
        lambda: run_serial(
            witness_spec(
                fractions=(0.25, 0.75, 1.0), num_nodes=250, trials=3, base_seed=7
            )
        ),
        rounds=1,
        iterations=1,
    )
    emit(
        "a1_witnesses",
        render_table(rows, title="A1: witness fraction vs detection"),
    )
    full = rows[-1]
    assert full["witness_fraction"] == 1.0
    assert full["detection_ratio"] == 1.0
    # Non-increasing detection as witnesses thin out (allowing noise).
    assert rows[0]["detection_ratio"] <= full["detection_ratio"] + 1e-9
    for row in rows:
        assert row["false_alarm_ratio"] <= 0.34
