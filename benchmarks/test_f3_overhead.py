"""Experiment F3: communication overhead vs network size.

Expected shape (paper family's bandwidth figure): both protocols' byte
totals grow linearly in N; iCPDA costs a cluster-size-dependent constant
factor over TAG (larger m -> larger factor), with the share exchange the
dominant iCPDA phase.
"""

from benchmarks.conftest import emit
from repro.experiments.engine import run_serial
from repro.experiments.overhead import overhead_spec
from repro.metrics.report import render_table


def test_f3_overhead(benchmark):
    rows = benchmark.pedantic(
        lambda: run_serial(
            overhead_spec(sizes=(200, 300, 400), cluster_sizes=(3, 4), trials=1)
        ),
        rounds=1,
        iterations=1,
    )
    emit(
        "f3_overhead",
        render_table(rows, title="F3: bytes per round, TAG vs iCPDA"),
    )
    tag = [row["tag_bytes"] for row in rows]
    icpda3 = [row["icpda_m3_bytes"] for row in rows]
    icpda4 = [row["icpda_m4_bytes"] for row in rows]
    assert tag == sorted(tag)
    assert icpda3 == sorted(icpda3)
    for row in rows:
        # iCPDA always costs more than TAG; bigger clusters cost more.
        assert row["icpda_m3_bytes"] > row["tag_bytes"]
        assert row["icpda_m4_bytes"] > row["icpda_m3_bytes"] * 0.9
        # Measured ratio within a factor ~2.5 of the per-node cost model
        # (the model excludes ARQ retries and MAC losses).
        assert row["icpda_m3_ratio"] < row["analytic_m3_ratio"] * 2.5
        assert row["icpda_m3_ratio"] > 1.5
