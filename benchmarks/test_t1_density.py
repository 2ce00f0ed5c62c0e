"""Experiment T1: network size vs average degree (the density table).

Expected shape: mean degree grows linearly in N (200 -> ~8.8, 600 ->
~28.4 on the 400 m field with 50 m range), matching the closed form
``(N-1)·πr²/A``.
"""

from benchmarks.conftest import emit
from repro.experiments.density import density_spec
from repro.experiments.engine import run_serial
from repro.metrics.report import render_table


def test_t1_density_table(benchmark):
    rows = benchmark.pedantic(
        lambda: run_serial(density_spec(trials=3, seed=0)), rounds=1, iterations=1
    )
    emit("t1_density", render_table(rows, title="T1: network size vs density"))
    degrees = [row["mean_degree"] for row in rows]
    assert degrees == sorted(degrees), "density must grow with N"
    for row in rows:
        # Within 15% of the closed form (border effects shave the mean
        # degree below the infinite-plane formula).
        assert abs(row["mean_degree"] - row["expected_degree"]) < (
            0.15 * row["expected_degree"]
        )
    # The paper-family anchor points.
    assert 7.0 < rows[0]["mean_degree"] < 11.0   # N=200
    assert 25.0 < rows[-1]["mean_degree"] < 32.0  # N=600
