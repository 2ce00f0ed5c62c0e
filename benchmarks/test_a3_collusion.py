"""Ablation A3: the collusion boundary (the paper's future work,
measured).

Expected shape: detection of a consistently-tampering head stays at 1.0
while at least one honest cluster member remains a witness, and
collapses to ~0 once the *entire* cluster colludes — the structural
limit of intra-cluster peer monitoring, and exactly why the paper
defers collusive attacks to future work.
"""

from benchmarks.conftest import emit
from repro.experiments.detection import collusion_spec
from repro.experiments.engine import run_serial
from repro.metrics.report import render_table


def test_a3_collusion_boundary(benchmark):
    rows = benchmark.pedantic(
        lambda: run_serial(collusion_spec(num_nodes=220, trials=3, base_seed=3)),
        rounds=1,
        iterations=1,
    )
    emit(
        "a3_collusion",
        render_table(rows, title="A3: detection vs colluding cluster fraction"),
    )
    by_fraction = {row["colluding_fraction"]: row for row in rows}
    assert by_fraction[0.0]["detection_ratio"] >= 0.66
    assert by_fraction[1.0]["detection_ratio"] <= 0.34
    ratios = [row["detection_ratio"] for row in rows]
    assert ratios == sorted(ratios, reverse=True)
