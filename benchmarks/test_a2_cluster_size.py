"""Ablation A2: cluster-size bound m vs the privacy/overhead triangle.

Expected shape: exchange bytes grow superlinearly in m (O(m²) shares);
analytic P_disclose falls exponentially in m; participation is best at
moderate m (m=3..4) — large k_min strands nodes whose neighborhoods
cannot assemble a full cluster.
"""

from benchmarks.conftest import emit
from repro.experiments.ablation import cluster_size_spec
from repro.experiments.engine import run_serial
from repro.metrics.report import render_table


def test_a2_cluster_size(benchmark):
    rows = benchmark.pedantic(
        lambda: run_serial(
            cluster_size_spec(cluster_sizes=(2, 3, 4, 5), num_nodes=300, base_seed=0)
        ),
        rounds=1,
        iterations=1,
    )
    emit(
        "a2_cluster_size",
        render_table(rows, title="A2: cluster size ablation"),
    )
    disclosures = [row["p_disclose_analytic"] for row in rows]
    assert disclosures == sorted(disclosures, reverse=True)
    by_m = {row["m"]: row for row in rows}
    # O(m^2) share traffic: per-exchanged-byte cost rises with m.
    assert by_m[5]["exchange_bytes"] > by_m[3]["exchange_bytes"] * 0.9
    for row in rows:
        assert 0.3 <= row["participation"] <= 1.0
