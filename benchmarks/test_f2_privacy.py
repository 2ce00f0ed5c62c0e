"""Experiment F2: privacy capacity P_disclose vs p_x per cluster size.

Expected shape (paper family's privacy figure): P_disclose increases in
p_x and drops exponentially with cluster size m.

Known deviation, quantified here: the analytic curve
``[1-(1-p_x)^h]^(m-1)`` assumes independent share exposure (full-mesh
clusters, as the paper family does). Our clusters admit members that
reach each other only through the head; their relayed shares *share*
the member-head links, so link breaks correlate and the simulated
disclosure sits **above** the mesh curve — bounded above by the single-
link worst case ``~p_x`` (one broken member-head link exposing that
member entirely). The bench asserts exactly this sandwich.
"""

from benchmarks.conftest import emit
from repro.experiments.engine import run_serial
from repro.experiments.privacy import privacy_spec
from repro.metrics.report import render_table


def test_f2_privacy_capacity(benchmark):
    rows = benchmark.pedantic(
        lambda: run_serial(
            privacy_spec(
                cluster_sizes=(3, 4, 5),
                px_grid=(0.02, 0.05, 0.10),
                num_nodes=300,
                draws=200,
                seed=0,
            )
        ),
        rounds=1,
        iterations=1,
    )
    from repro.metrics.report import Series, render_chart

    charts = []
    for m in (3, 4, 5):
        series = Series(f"m={m}")
        for row in rows:
            if row["m"] == m:
                series.add(row["p_x"], max(row["sim_p_disclose"], 1e-6))
        charts.append(render_chart(series, title=f"P_disclose, m={m} (log)",
                                   log_scale=True, width=30))
    emit(
        "f2_privacy",
        render_table(rows, title="F2: P_disclose vs p_x per cluster size")
        + "\n\n" + "\n\n".join(charts),
    )
    by_m = {}
    for row in rows:
        by_m.setdefault(row["m"], []).append(row)
    # Monotone in p_x for every m.
    for m, series in by_m.items():
        probs = [r["sim_p_disclose"] for r in series]
        assert probs == sorted(probs)
    # Decreasing in m at the largest p_x.
    tails = {m: series[-1]["sim_p_disclose"] for m, series in by_m.items()}
    assert tails[5] <= tails[4] <= tails[3]
    # Sandwich: above the independent/mesh analytic curve (relay
    # correlation), below the single-link worst case ~p_x.
    from repro.analysis.privacy import p_disclose_link

    for row in rows:
        tolerance = max(4 * row["stderr"], 1e-3)
        mesh_floor = p_disclose_link(row["p_x"], row["m"], hops=1.0)
        assert row["sim_p_disclose"] >= mesh_floor - tolerance
        assert row["sim_p_disclose"] <= row["p_x"] + tolerance
