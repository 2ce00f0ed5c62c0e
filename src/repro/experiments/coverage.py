"""Experiment F1: cluster coverage and participation vs network size.

For each size: the fraction of sensors that ended up in an active
cluster and knew it (simulated, including the merge wave), the fraction
that actually contributed to an accepted aggregate, and the wave-1
analytic lower bound from :mod:`repro.analysis.coverage`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.coverage import coverage_lower_bound
from repro.core.config import IcpdaConfig
from repro.experiments.common import DEFAULT_SIZES, run_icpda_round
from repro.experiments.engine import CellSpec, ExperimentSpec


def coverage_cell(params: dict, seed: int, context: dict) -> dict:
    """One iCPDA round: clustering coverage metrics for one trial."""
    size = params["nodes"]
    cfg = context["config"]
    result, protocol = run_icpda_round(
        size, cfg, seed=seed, transport=context.get("transport", "des")
    )
    clustering = protocol.last_clustering
    assert clustering is not None
    sensors = size - 1
    in_active = sum(
        len(c.informed_members) - (1 if c.head == 0 else 0)
        for c in clustering.active_clusters
    )
    degrees = [protocol.stack.degree(n) for n in range(1, size)]
    active = clustering.active_clusters
    return {
        "clustered_fraction": in_active / sensors,
        "participation": result.participation,
        "wave1_bound": coverage_lower_bound(degrees, cfg.p_c),
        "active_clusters": len(active),
        "mean_cluster_size": (
            sum(c.size for c in active) / len(active) if active else None
        ),
    }


def coverage_spec(
    sizes: Sequence[int] = DEFAULT_SIZES,
    trials: int = 3,
    config: Optional[IcpdaConfig] = None,
    base_seed: int = 0,
) -> ExperimentSpec:
    """Rows per size: clustered fraction, participation, analytic bound,
    cluster count, mean active-cluster size.

    Cells: one per ``(size, trial)``; reduce: per-size trial means.
    """
    sizes = tuple(sizes)
    cfg = config if config is not None else IcpdaConfig()
    cells = tuple(
        CellSpec({"nodes": size, "trial": trial}, base_seed + trial * 1000 + size)
        for size in sizes
        for trial in range(trials)
    )

    def reduce(outcomes) -> List[dict]:
        rows: List[dict] = []
        for size in sizes:
            values = [o.value for o in outcomes if o.params["nodes"] == size]
            if not values:
                continue
            n = len(values)
            rows.append(
                {
                    "nodes": size,
                    "clustered_fraction": round(
                        sum(v["clustered_fraction"] for v in values) / n, 4
                    ),
                    "participation": round(
                        sum(v["participation"] for v in values) / n, 4
                    ),
                    "wave1_bound": round(
                        sum(v["wave1_bound"] for v in values) / n, 4
                    ),
                    "active_clusters": round(
                        sum(v["active_clusters"] for v in values) / n, 1
                    ),
                    "mean_cluster_size": round(
                        sum(v["mean_cluster_size"] or 0.0 for v in values) / n, 2
                    ),
                }
            )
        return rows

    return ExperimentSpec("F1", coverage_cell, cells, reduce, context={"config": cfg})
