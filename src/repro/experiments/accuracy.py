"""Experiment F4: aggregation accuracy vs network size, TAG vs iCPDA.

The paper family's accuracy metric: collected aggregate over true
aggregate across all sensors. TAG loses data only to collisions and
orphaned nodes; iCPDA additionally loses unclustered nodes and aborted
clusters, so it trails TAG in sparse networks and converges near 1.0
once the average degree passes ~18 — the shape this experiment checks.
COUNT and SUM are both measured (COUNT doubles as participation).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.config import IcpdaConfig
from repro.experiments.common import (
    DEFAULT_SIZES,
    run_icpda_round,
    run_tag_round_on,
)
from repro.experiments.engine import CellSpec, ExperimentSpec
from repro.metrics.accuracy import summarize_accuracy


def accuracy_cell(params: dict, seed: int, context: dict) -> dict:
    """One (TAG round, iCPDA round) pair on the same deployment."""
    size = params["nodes"]
    workload = context["workload"]
    transport = context.get("transport", "des")
    tag_result, _ = run_tag_round_on(
        size, seed=seed, workload=workload, transport=transport
    )
    round_result, _ = run_icpda_round(
        size, context["config"], seed=seed, workload=workload, transport=transport
    )
    return {
        "tag_accuracy": tag_result.accuracy,
        "icpda_accuracy": (
            round_result.accuracy if round_result.verdict.accepted else None
        ),
        "participation": round_result.participation,
    }


def accuracy_spec(
    sizes: Sequence[int] = DEFAULT_SIZES,
    trials: int = 3,
    base_seed: int = 0,
) -> ExperimentSpec:
    """Rows per size: TAG and iCPDA SUM accuracy (mean over trials),
    iCPDA participation (== COUNT accuracy), and rejected-round count.

    Cells: one per ``(size, trial)``; reduce: per-size summaries.
    """
    sizes = tuple(sizes)
    cfg = IcpdaConfig()
    cells = tuple(
        CellSpec({"nodes": size, "trial": trial}, base_seed + trial * 1009 + size)
        for size in sizes
        for trial in range(trials)
    )

    def reduce(outcomes) -> List[dict]:
        rows: List[dict] = []
        for size in sizes:
            values = [o.value for o in outcomes if o.params["nodes"] == size]
            if not values:
                continue
            tag_summary = summarize_accuracy([v["tag_accuracy"] for v in values])
            icpda_summary = summarize_accuracy(
                [v["icpda_accuracy"] for v in values]
            )
            participation = [v["participation"] for v in values]
            rows.append(
                {
                    "nodes": size,
                    "tag_accuracy": round(tag_summary.mean, 4),
                    "icpda_accuracy": round(icpda_summary.mean, 4)
                    if icpda_summary.trials
                    else None,
                    "icpda_participation": round(
                        sum(participation) / len(participation), 4
                    ),
                    "icpda_rejected": icpda_summary.rejected,
                    "trials": len(values),
                }
            )
        return rows

    return ExperimentSpec(
        "F4",
        accuracy_cell,
        cells,
        reduce,
        context={"config": cfg, "workload": "metering"},
    )


def aggregate_comparison_cell(params: dict, seed: int, context: dict) -> dict:
    """One iCPDA round with one aggregate function."""
    cfg = IcpdaConfig(aggregate_name=params["aggregate"])
    result, _ = run_icpda_round(
        context["num_nodes"],
        cfg,
        seed=seed,
        transport=context.get("transport", "des"),
    )
    return {
        "aggregate": params["aggregate"],
        "verdict": result.verdict.value,
        "value": result.value,
        "true_value": round(result.true_value, 2),
        "accuracy": round(result.accuracy, 4)
        if result.verdict.accepted
        else None,
    }


def aggregate_comparison_spec(
    num_nodes: int = 400,
    aggregates: Sequence[str] = ("sum", "count", "average", "variance"),
    seed: int = 0,
) -> ExperimentSpec:
    """Accuracy of every supported aggregate function on one network —
    demonstrates that the share algebra carries arbitrary additive
    aggregates exactly (residual error is pure data loss).

    Cells: one per aggregate function on the same deployment.
    """
    cells = tuple(CellSpec({"aggregate": name}, seed) for name in aggregates)
    return ExperimentSpec(
        "T2",
        aggregate_comparison_cell,
        cells,
        lambda outcomes: [o.value for o in outcomes],
        context={"num_nodes": num_nodes},
    )
