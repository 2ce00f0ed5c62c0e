"""Experiment F8: epoch latency and energy vs network size.

Expected shape: TAG finishes in one depth-staggered epoch (a few
seconds); iCPDA pays its fixed phase windows (formation + exchange) on
top of a TAG-like report schedule, so its latency is a roughly constant
offset over TAG. Per-node energy is higher for iCPDA in proportion to
its byte overhead.
"""

from benchmarks.conftest import emit
from repro.experiments.engine import run_serial
from repro.experiments.latency import latency_spec
from repro.metrics.report import render_table


def test_f8_latency(benchmark):
    rows = benchmark.pedantic(
        lambda: run_serial(latency_spec(sizes=(200, 300, 400), base_seed=0)),
        rounds=1,
        iterations=1,
    )
    emit(
        "f8_latency",
        render_table(rows, title="F8: round latency and energy vs size"),
    )
    for row in rows:
        assert row["icpda_round_s"] > row["tag_epoch_s"]
        assert row["icpda_mJ_per_node"] > row["tag_mJ_per_node"]
    # iCPDA latency is dominated by fixed windows: the spread across
    # sizes stays within a few slot lengths.
    latencies = [row["icpda_round_s"] for row in rows]
    assert max(latencies) - min(latencies) < 15.0
