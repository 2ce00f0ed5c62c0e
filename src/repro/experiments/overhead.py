"""Experiment F3: communication overhead vs network size.

Total bytes put on the air per round: TAG vs iCPDA with cluster-size
bounds [3, 3] and [4, 4] (the analogue of iPDA's l=1 / l=2 series), plus
the analytic per-node cost model's ratio for comparison. The iCPDA
figure is broken down per protocol phase so the ablations can attribute
cost.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.analysis.overhead import overhead_ratio
from repro.core.config import IcpdaConfig
from repro.experiments.common import (
    DEFAULT_SIZES,
    fixed_cluster_config,
    run_icpda_round,
    run_tag_round_on,
)
from repro.experiments.engine import CellSpec, ExperimentSpec

_PHASES = ("clustering", "exchange", "report")


def overhead_cell(params: dict, seed: int, context: dict) -> dict:
    """One round of one scheme: bytes on the air (+ phase breakdown)."""
    size = params["nodes"]
    transport = context.get("transport", "des")
    if params["scheme"] == "tag":
        _, stack = run_tag_round_on(size, seed=seed, transport=transport)
        return {"bytes": stack.counters.total_bytes}
    cfg = fixed_cluster_config(params["m"], context["config"])
    _, protocol = run_icpda_round(size, cfg, seed=seed, transport=transport)
    return {
        "bytes": protocol.total_bytes(),
        "phases": {phase: protocol.phase_bytes.get(phase, 0) for phase in _PHASES},
    }


def overhead_spec(
    sizes: Sequence[int] = DEFAULT_SIZES,
    cluster_sizes: Sequence[int] = (3, 4),
    trials: int = 2,
) -> ExperimentSpec:
    """Rows per size: TAG bytes, iCPDA bytes per cluster-size setting,
    measured and analytic ratios, and the iCPDA exchange-phase share.

    Cells: per size, one TAG cell per trial and one iCPDA cell per
    (cluster size, trial); reduce: the combined per-size row.
    """
    sizes = tuple(sizes)
    cluster_sizes = tuple(cluster_sizes)
    cells: List[CellSpec] = []
    for size in sizes:
        for trial in range(trials):
            cells.append(
                CellSpec(
                    {"nodes": size, "scheme": "tag", "trial": trial},
                    trial * 101 + size,
                )
            )
        for m in cluster_sizes:
            for trial in range(trials):
                cells.append(
                    CellSpec(
                        {"nodes": size, "scheme": "icpda", "m": m, "trial": trial},
                        trial * 101 + size,
                    )
                )

    def reduce(outcomes) -> List[dict]:
        rows: List[dict] = []
        for size in sizes:
            tag_values = [
                o.value
                for o in outcomes
                if o.params["nodes"] == size and o.params["scheme"] == "tag"
            ]
            if not tag_values:
                continue
            tag_bytes = sum(v["bytes"] for v in tag_values) / len(tag_values)
            row = {"nodes": size, "tag_bytes": int(tag_bytes)}
            for m in cluster_sizes:
                values = [
                    o.value
                    for o in outcomes
                    if o.params["nodes"] == size
                    and o.params["scheme"] == "icpda"
                    and o.params.get("m") == m
                ]
                if not values:
                    continue
                total = sum(v["bytes"] for v in values) / len(values)
                exchange = sum(v["phases"]["exchange"] for v in values)
                row[f"icpda_m{m}_bytes"] = int(total)
                row[f"icpda_m{m}_ratio"] = round(total / tag_bytes, 2)
                row[f"analytic_m{m}_ratio"] = round(overhead_ratio(m), 2)
                row[f"icpda_m{m}_exchange_share"] = round(exchange / total, 2)
            rows.append(row)
        return rows

    return ExperimentSpec(
        "F3", overhead_cell, tuple(cells), reduce, context={"config": IcpdaConfig()}
    )
