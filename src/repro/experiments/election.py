"""Ablation A5: fixed vs adaptive head election across densities.

With fixed ``p_c`` the expected cluster size scales with density: sparse
networks under-produce heads (coverage holes) and dense ones
over-produce them (tiny clusters that dissolve). The adaptive rule
``p_i = min(1, k/degree_i)`` holds cluster sizes near the target across
the density sweep — the paper family's justification for the adaptive
parameter.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.core.config import IcpdaConfig
from repro.experiments.common import run_icpda_round


def election_cell(params: dict, seed: int, context: dict) -> dict:
    """One round under one election mode at one size."""
    cfg = replace(context["config"], election_mode=params["mode"])
    result, protocol = run_icpda_round(
        params["nodes"], cfg, seed=seed, transport=context.get("transport", "des")
    )
    clustering = protocol.last_clustering
    assert clustering is not None
    active = clustering.active_clusters
    cluster_sizes = [c.size for c in active]
    return {
        "nodes": params["nodes"],
        "mode": params["mode"],
        "participation": round(result.participation, 4),
        "active_clusters": len(active),
        "mean_cluster_size": round(float(np.mean(cluster_sizes)), 2)
        if cluster_sizes
        else None,
        "cluster_size_std": round(float(np.std(cluster_sizes)), 2)
        if cluster_sizes
        else None,
        "verdict": result.verdict.value,
    }


def election_spec(
    sizes: Sequence[int] = (150, 300, 500),
    base_seed: int = 0,
):
    """Rows per (size, mode): participation, active clusters, mean and
    spread of active-cluster sizes.

    Cells: one per ``(size, election mode)`` on the same deployment.
    """
    from repro.experiments.engine import CellSpec, ExperimentSpec

    base = IcpdaConfig()
    cells = tuple(
        CellSpec({"nodes": size, "mode": mode}, base_seed + size)
        for size in sizes
        for mode in ("fixed", "adaptive")
    )
    return ExperimentSpec(
        "A5",
        election_cell,
        cells,
        lambda outcomes: [o.value for o in outcomes],
        context={"config": base},
    )
