"""Ablation A5: fixed vs adaptive head election across densities.

Expected shape — a *negative result*, and the interesting kind: the
paper family motivates density-adaptive election probabilities
(Eq. (1)-(2)-style rules), but in this protocol the dissolve/merge wave
already supplies that adaptivity. The explicit adaptive rule
``p = 1/min(k, degree+1)`` coincides with the fixed ``p_c = 1/k``
whenever a neighborhood can fill a cluster (degree >= k-1), so across
realistic densities the two modes produce near-identical clusterings
and participation. The bench pins that equivalence; the merge wave is
the mechanism doing the real work (remove it and coverage collapses —
see the clustering tests).
"""

from benchmarks.conftest import emit
from repro.experiments.election import election_spec
from repro.experiments.engine import run_serial
from repro.metrics.report import render_table


def test_a5_election_modes(benchmark):
    rows = benchmark.pedantic(
        lambda: run_serial(election_spec(sizes=(150, 400), base_seed=2)),
        rounds=1,
        iterations=1,
    )
    emit(
        "a5_election",
        render_table(rows, title="A5: fixed vs adaptive election"),
    )
    adaptive = [r for r in rows if r["mode"] == "adaptive"]
    fixed = [r for r in rows if r["mode"] == "fixed"]
    for fixed_row, adaptive_row in zip(fixed, adaptive):
        # Equivalence within noise at every density: the merge wave,
        # not the election rule, provides the adaptivity.
        assert abs(
            adaptive_row["participation"] - fixed_row["participation"]
        ) < 0.05
        assert abs(
            adaptive_row["mean_cluster_size"] - fixed_row["mean_cluster_size"]
        ) < 0.5
    # Both modes keep cluster sizes near the k=4 target across densities.
    for row in rows:
        assert abs(row["mean_cluster_size"] - 4.0) < 1.5
