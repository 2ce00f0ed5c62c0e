"""Experiment F7: attacker localization in O(log N) rounds.

Expected shape: the binary search isolates the attacking cluster with
probes within the ceil(log2 C) bound, so probes grow logarithmically —
not linearly — in network size.
"""

from benchmarks.conftest import emit
from repro.experiments.engine import run_serial
from repro.experiments.localization import localization_spec
from repro.metrics.report import render_table


def test_f7_localization(benchmark):
    rows = benchmark.pedantic(
        lambda: run_serial(localization_spec(sizes=(150, 250), trials=2, base_seed=0)),
        rounds=1,
        iterations=1,
    )
    emit(
        "f7_localization",
        render_table(rows, title="F7: localization probes vs network size"),
    )
    for row in rows:
        ok, total = row["isolated_ok"].split("/")
        assert int(ok) >= int(total) - 1, "localization mostly succeeds"
        # Probes stay within ~1 of the log2 bound (noise may add one).
        assert row["mean_probes"] <= row["log2_bound"] + 1.0
        # And are far below the linear alternative (#clusters probes).
        assert row["mean_probes"] < row["clusters"] / 2
