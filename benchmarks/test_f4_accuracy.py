"""Experiment F4: aggregation accuracy vs network size, TAG vs iCPDA.

Expected shape (paper family's accuracy figure): both protocols near
1.0 in dense networks; iCPDA trails TAG (it additionally loses
unclustered nodes and aborted clusters) with the gap shrinking as
density grows; iCPDA participation tracks its accuracy (COUNT ~ SUM for
i.i.d. readings).
"""

from benchmarks.conftest import emit
from repro.experiments.accuracy import accuracy_spec
from repro.experiments.engine import run_serial
from repro.metrics.report import render_table


def test_f4_accuracy(benchmark):
    rows = benchmark.pedantic(
        lambda: run_serial(accuracy_spec(sizes=(200, 300, 400), trials=2, base_seed=0)),
        rounds=1,
        iterations=1,
    )
    from repro.metrics.report import Series, render_chart

    tag_series = Series("tag")
    icpda_series = Series("icpda")
    for row in rows:
        tag_series.add(row["nodes"], row["tag_accuracy"])
        if row["icpda_accuracy"] is not None:
            icpda_series.add(row["nodes"], row["icpda_accuracy"])
    emit(
        "f4_accuracy",
        render_table(rows, title="F4: accuracy vs network size")
        + "\n\n"
        + render_chart(tag_series, title="TAG accuracy", width=30)
        + "\n\n"
        + render_chart(icpda_series, title="iCPDA accuracy", width=30),
    )
    for row in rows:
        assert row["tag_accuracy"] > 0.8
        if row["icpda_accuracy"] is not None:
            assert 0.6 < row["icpda_accuracy"] <= 1.0
            # TAG at least matches iCPDA (loss superset argument).
            assert row["tag_accuracy"] >= row["icpda_accuracy"] - 0.08
            # Participation and SUM accuracy track each other.
            assert abs(
                row["icpda_accuracy"] - row["icpda_participation"]
            ) < 0.1
