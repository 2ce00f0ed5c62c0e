"""Experiment T1: network size vs average degree.

Reproduces the evaluation's density table (200..600 nodes on the 400 m
square with 50 m range gives mean degrees ~8.8 to ~28.4), plus the
closed-form expectation ``(N-1)·πr²/A`` for comparison.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.experiments.common import DEFAULT_SIZES
from repro.experiments.engine import CellSpec, ExperimentSpec, derive_seed
from repro.topology.deploy import DEFAULT_FIELD_SIZE, DEFAULT_RANGE, uniform_deployment
from repro.topology.stats import density_stats


def density_cell(params: dict, seed: int, context: dict) -> dict:
    """One deployment draw: degree/connectivity stats for one trial."""
    rng = np.random.default_rng(seed)
    deployment = uniform_deployment(
        params["nodes"],
        field_size=context["field_size"],
        radio_range=context["radio_range"],
        rng=rng,
    )
    stats = density_stats(deployment)
    return {
        "mean_degree": stats.mean_degree,
        "isolated": stats.isolated_nodes,
        "lcc_fraction": stats.largest_component_fraction,
    }


def density_spec(
    sizes: Sequence[int] = DEFAULT_SIZES,
    trials: int = 5,
    seed: int = 0,
) -> ExperimentSpec:
    """Rows: nodes, mean_degree (simulated), isolated node count,
    largest-component fraction, expected_degree (analytic).

    Cells: one per ``(size, trial)``; reduce: per-size field means.
    """
    sizes = tuple(sizes)
    cells = tuple(
        CellSpec(
            {"nodes": size, "trial": trial},
            derive_seed(seed, "T1", {"nodes": size, "trial": trial}),
        )
        for size in sizes
        for trial in range(trials)
    )

    def reduce(outcomes) -> List[dict]:
        rows: List[dict] = []
        for size in sizes:
            values = [o.value for o in outcomes if o.params["nodes"] == size]
            if not values:
                continue
            rows.append(
                {
                    "nodes": size,
                    "mean_degree": round(
                        float(np.mean([v["mean_degree"] for v in values])), 2
                    ),
                    "isolated": float(np.mean([v["isolated"] for v in values])),
                    "lcc_fraction": round(
                        float(np.mean([v["lcc_fraction"] for v in values])), 4
                    ),
                    "expected_degree": round(
                        (size - 1) * np.pi * DEFAULT_RANGE**2 / DEFAULT_FIELD_SIZE**2, 2
                    ),
                }
            )
        return rows

    return ExperimentSpec(
        "T1",
        density_cell,
        cells,
        reduce,
        context={"field_size": DEFAULT_FIELD_SIZE, "radio_range": DEFAULT_RANGE},
    )
