"""Ablations A1 and A2: the design-choice sweeps DESIGN.md calls out.

A1 — witness fraction: how many cluster members need to monitor the
head for detection to hold, and what overhearing costs in energy.

A2 — cluster-size bounds: the privacy / overhead / participation
triangle as ``k_min = k_max = m`` grows. Larger clusters buy privacy
exponentially (``p_x^{2(m-1)}``) and pay O(m²) share traffic; too-large
``k_min`` also strands nodes in regions that cannot assemble a cluster.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from repro.analysis.privacy import p_disclose_link
from repro.attacks.pollution import TamperStrategy
from repro.attacks.scenario import run_detection_trials
from repro.core.config import IcpdaConfig
from repro.experiments.common import fixed_cluster_config, run_icpda_round
from repro.experiments.detection import _pool_ratios
from repro.experiments.engine import CellSpec, ExperimentSpec


def witness_cell(params: dict, seed: int, context: dict) -> dict:
    """One paired detection trial at one witness fraction."""
    cfg = IcpdaConfig(witness_fraction=params["witness_fraction"])
    stats, _, _ = run_detection_trials(
        num_nodes=context["num_nodes"],
        num_attackers=1,
        strategy=TamperStrategy.CONSISTENT_OWN,
        trials=1,
        config=cfg,
        base_seed=seed,
    )
    return dataclasses.asdict(stats)


def witness_spec(
    fractions: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    num_nodes: int = 300,
    trials: int = 3,
    base_seed: int = 0,
) -> ExperimentSpec:
    """A1 rows: witness fraction -> detection ratio, false alarms.

    Cells: one per ``(fraction, trial)``; reduce: pooled ratios.
    """
    fractions = tuple(fractions)
    cells = tuple(
        CellSpec(
            {"witness_fraction": fraction, "trial": trial}, base_seed + trial
        )
        for fraction in fractions
        for trial in range(trials)
    )

    def reduce(outcomes) -> List[dict]:
        rows: List[dict] = []
        for fraction in fractions:
            values = [
                o.value
                for o in outcomes
                if o.params["witness_fraction"] == fraction
            ]
            if not values:
                continue
            rows.append({"witness_fraction": fraction, **_pool_ratios(values)})
        return rows

    return ExperimentSpec(
        "A1", witness_cell, cells, reduce, context={"num_nodes": num_nodes}
    )


def cluster_size_cell(params: dict, seed: int, context: dict) -> dict:
    """One round with ``k_min = k_max = m`` pinned."""
    m = params["m"]
    cfg = fixed_cluster_config(m)
    result, protocol = run_icpda_round(
        context["num_nodes"],
        cfg,
        seed=seed,
        transport=context.get("transport", "des"),
    )
    return {
        "m": m,
        "participation": round(result.participation, 4),
        "verdict": result.verdict.value,
        "total_bytes": protocol.total_bytes(),
        "exchange_bytes": protocol.phase_bytes.get("exchange", 0),
        "p_disclose_analytic": p_disclose_link(context["p_x"], m),
    }


def cluster_size_spec(
    cluster_sizes: Sequence[int] = (2, 3, 4, 5, 6),
    num_nodes: int = 400,
    p_x: float = 0.05,
    base_seed: int = 0,
) -> ExperimentSpec:
    """A2 rows: m -> participation, bytes per round, analytic
    P_disclose at the reference ``p_x``.

    Cells: one round per cluster size.
    """
    cells = tuple(CellSpec({"m": m}, base_seed + m) for m in cluster_sizes)
    return ExperimentSpec(
        "A2",
        cluster_size_cell,
        cells,
        lambda outcomes: [o.value for o in outcomes],
        context={"num_nodes": num_nodes, "p_x": p_x},
    )
