"""Experiment T2: every supported aggregate through a full round.

Expected shape: the share algebra carries SUM / COUNT / AVERAGE /
VARIANCE exactly — residual error is network loss only; AVERAGE is
loss-robust (uniform loss cancels between numerator and denominator);
the MIN/MAX power-mean approximations land within their documented
approximation band for a small field-safe power.
"""

import numpy as np

from benchmarks.conftest import emit
from repro.aggregation.functions import FixedPointCodec, MaxApproxAggregate
from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.experiments.accuracy import aggregate_comparison_spec
from repro.experiments.engine import run_serial
from repro.metrics.report import render_table
from repro.topology.deploy import uniform_deployment


def test_t2_aggregate_functions(benchmark):
    rows = benchmark.pedantic(
        lambda: run_serial(
            aggregate_comparison_spec(
                num_nodes=250,
                aggregates=(
                    "sum",
                    "count",
                    "average",
                    "variance",
                    "sum+count+variance",
                ),
                seed=8,
            )
        ),
        rounds=1,
        iterations=1,
    )

    # MAX via the power mean with a field-safe power (the aggregate
    # instance override path).
    deployment = uniform_deployment(250, rng=np.random.default_rng(8))
    protocol = IcpdaProtocol(
        deployment,
        IcpdaConfig(aggregate_name="max"),
        seed=8,
        aggregate=MaxApproxAggregate(FixedPointCodec(scale=10), power=3),
    )
    protocol.setup()
    readings = {i: 10.0 + (i % 40) for i in range(1, 250)}
    result = protocol.run_round(readings)
    rows.append(
        {
            "aggregate": "max~ (k=3)",
            "verdict": result.verdict.value,
            "value": round(result.value, 2) if result.value else None,
            "true_value": max(readings.values()),
            "accuracy": round(result.accuracy, 4)
            if result.verdict.accepted
            else None,
        }
    )
    emit(
        "t2_aggregates",
        render_table(rows, title="T2: all aggregates through one round"),
    )

    by_name = {row["aggregate"]: row for row in rows}
    for name in ("sum", "count", "variance", "sum+count+variance"):
        row = by_name[name]
        assert row["verdict"] == "accepted", name
    # AVERAGE is loss-robust: accuracy ~1 despite participation < 1.
    assert abs(by_name["average"]["accuracy"] - 1.0) < 0.05
    # Power-mean MAX: the collected value tracks the power-mean ground
    # truth (accuracy vs that truth near 1), and overshoots the *actual*
    # maximum by at most the k=3 band, factor N^(1/3).
    max_row = by_name["max~ (k=3)"]
    if max_row["accuracy"] is not None:
        assert 0.8 <= max_row["accuracy"] <= 1.05
        overshoot = max_row["value"] / max_row["true_value"]
        assert 1.0 <= overshoot <= 250 ** (1 / 3) + 0.5
