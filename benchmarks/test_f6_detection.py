"""Experiment F6: pollution-detection ratio and false alarms.

Expected shape: detection ~1.0 for any number of non-colluding
value-tampering attackers (more attackers can only raise the rejection
probability); false alarms on paired clean rounds ~0. The strategy
matrix shows every witness check firing: value tampers are always
caught, silent drops are caught only when their impact exceeds Th (the
paper's documented blind spot).
"""

from benchmarks.conftest import emit
from repro.experiments.detection import (
    detection_spec,
    run_strategy_matrix,
)
from repro.experiments.engine import run_serial
from repro.metrics.report import render_table


def test_f6_detection_vs_attackers(benchmark):
    rows = benchmark.pedantic(
        lambda: run_serial(
            detection_spec(
                attacker_counts=(1, 2, 3),
                num_nodes=250,
                trials=3,
                base_seed=100,
            )
        ),
        rounds=1,
        iterations=1,
    )
    emit(
        "f6_detection",
        render_table(rows, title="F6: detection vs number of attackers"),
    )
    for row in rows:
        assert row["detection_ratio"] >= 0.66
        assert row["false_alarm_ratio"] <= 0.34
    assert rows[-1]["detection_ratio"] == 1.0


def test_f6_strategy_matrix(benchmark):
    rows = benchmark.pedantic(
        lambda: run_strategy_matrix(num_nodes=250, trials=2, base_seed=50),
        rounds=1,
        iterations=1,
    )
    emit(
        "f6_strategies",
        render_table(rows, title="F6b: detection per tamper strategy"),
    )
    by_strategy = {row["strategy"]: row for row in rows}
    for name in ("naive_total", "consistent_own", "consistent_child",
                 "forward_tamper"):
        assert by_strategy[name]["detection_ratio"] >= 0.5, name
    for row in rows:
        assert row["false_alarm_ratio"] == 0.0
