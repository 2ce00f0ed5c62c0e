"""Experiment F8: epoch latency vs network size.

Virtual time from query start to a finalized answer: TAG (one
depth-staggered epoch) vs iCPDA (formation + exchange + witnessed report
phases). iCPDA's phase windows dominate its latency and are largely
size-independent; the depth-dependent slot schedule contributes the
growth term in both protocols. Energy per round is reported alongside
(the metric aggregation exists to optimize).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.clustering import formation_window_s
from repro.core.config import IcpdaConfig
from repro.core.intracluster import WINDOW_EXCHANGE_S
from repro.experiments.common import (
    DEFAULT_SIZES,
    build_icpda,
    make_readings,
    run_tag_round_on,
)
from repro.experiments.engine import CellSpec, ExperimentSpec

import numpy as np


def latency_cell(params: dict, seed: int, context: dict) -> dict:
    """One size: paired TAG epoch and iCPDA round timings + energy."""
    size = params["nodes"]
    cfg = context["config"]
    transport = context.get("transport", "des")
    tag_result, tag_stack = run_tag_round_on(size, seed=seed, transport=transport)
    tag_energy = tag_stack.energy.report()

    protocol = build_icpda(size, cfg, seed=seed, transport=transport)
    readings = make_readings(size, rng=np.random.default_rng(seed + 10_000))
    start = protocol.sim.now
    result = protocol.run_round(readings)
    icpda_seconds = protocol.sim.now - start
    icpda_energy = protocol.stack.energy.report()

    formation_s = formation_window_s(protocol.tree.max_depth())
    return {
        "nodes": size,
        "tag_epoch_s": round(tag_result.duration_s, 2),
        "icpda_round_s": round(icpda_seconds, 2),
        "icpda_formation_s": round(formation_s, 2),
        "icpda_exchange_s": round(WINDOW_EXCHANGE_S, 2),
        "icpda_report_s": round(
            icpda_seconds - formation_s - WINDOW_EXCHANGE_S, 2
        ),
        "tag_mJ_per_node": round(tag_energy.total_j / size * 1000.0, 3),
        "icpda_mJ_per_node": round(icpda_energy.total_j / size * 1000.0, 3),
        "verdict": result.verdict.value,
    }


def latency_spec(
    sizes: Sequence[int] = DEFAULT_SIZES,
    base_seed: int = 0,
) -> ExperimentSpec:
    """Rows per size: TAG epoch seconds, iCPDA round seconds (by phase),
    and per-node mean radio energy for each protocol.

    Cells: one per size (no trial dimension — latency is a per-round
    deterministic quantity at a fixed seed).
    """
    cfg = IcpdaConfig()
    cells = tuple(
        CellSpec({"nodes": size}, base_seed + size) for size in sizes
    )
    return ExperimentSpec(
        "F8",
        latency_cell,
        cells,
        lambda outcomes: [o.value for o in outcomes],
        context={"config": cfg},
    )
