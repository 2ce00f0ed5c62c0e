"""Experiment F1: cluster coverage and participation vs network size.

Expected shape: the clustered fraction and participation grow with
density and sit above ~0.8 once mean degree passes ~14; the wave-1
analytic bound tracks (from below at low density) the simulated
clustered fraction.
"""

from benchmarks.conftest import emit
from repro.experiments.coverage import coverage_spec
from repro.experiments.engine import run_serial
from repro.metrics.report import render_table


def test_f1_coverage(benchmark):
    rows = benchmark.pedantic(
        lambda: run_serial(coverage_spec(sizes=(200, 300, 400), trials=2, base_seed=0)),
        rounds=1,
        iterations=1,
    )
    emit(
        "f1_coverage",
        render_table(rows, title="F1: cluster coverage vs network size"),
    )
    for row in rows:
        assert 0.0 < row["participation"] <= 1.0
        assert row["clustered_fraction"] >= row["participation"] - 0.05
    dense = rows[-1]
    assert dense["clustered_fraction"] > 0.85
    assert dense["participation"] > 0.8
