"""Experiment F2: privacy capacity P_disclose vs p_x per cluster size.

One protocol round is executed per cluster size with ``k_min = k_max =
m`` pinned; the recorded share traffic is then attacked by many
independent Monte-Carlo eavesdroppers per ``p_x`` value. The analytic
curve ``p_disclose_link`` is printed alongside — the reproduction's
analogue of the paper family's Figure "capacity of privacy-preservation".
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.analysis.privacy import p_disclose_link
from repro.attacks.eavesdrop import EavesdropAnalysis
from repro.core.config import IcpdaConfig
from repro.crypto.adversary_keys import LinkBreakModel
from repro.experiments.common import fixed_cluster_config, run_icpda_round
from repro.experiments.engine import CellSpec, ExperimentSpec
from repro.metrics.privacy import DisclosureStats

#: The p_x grid the paper family plots (0.01 .. 0.1).
DEFAULT_PX_GRID: Sequence[float] = (0.01, 0.02, 0.04, 0.06, 0.08, 0.10)


def privacy_cell(params: dict, seed: int, context: dict) -> List[dict]:
    """One cluster size: run the round, then sweep the full p_x grid.

    The grid stays inside one cell because the eavesdropper RNG stream
    is threaded across p_x values — splitting it would change the
    published numbers.
    """
    m = params["m"]
    cfg = fixed_cluster_config(m, context["config"])
    _, protocol = run_icpda_round(
        context["num_nodes"],
        cfg,
        seed=seed,
        transport=context.get("transport", "des"),
    )
    exchange = protocol.last_exchange
    assert exchange is not None
    rng = np.random.default_rng(context["base_seed"] + 77 * m)
    # Mean physical hops per share in this round (head-relayed shares
    # cross two links) — feeds the analytic curve.
    hops = _mean_hops(exchange)
    rows: List[dict] = []
    for p_x in context["px_grid"]:
        parts = []
        for _ in range(context["draws"]):
            model = LinkBreakModel(p_x, rng=rng)
            stats, _ = EavesdropAnalysis(exchange, model).run()
            parts.append(stats)
        pooled = DisclosureStats.pooled(parts)
        rows.append(
            {
                "m": m,
                "p_x": p_x,
                "sim_p_disclose": pooled.probability,
                "stderr": pooled.stderr,
                "analytic": p_disclose_link(p_x, m, hops=hops),
                "exposed": pooled.exposed,
            }
        )
    return rows


def privacy_spec(
    cluster_sizes: Sequence[int] = (3, 4, 5),
    px_grid: Sequence[float] = DEFAULT_PX_GRID,
    num_nodes: int = 400,
    draws: int = 300,
    seed: int = 0,
) -> ExperimentSpec:
    """Rows: (m, p_x) -> simulated P_disclose (pooled over ``draws``
    break-model draws), its standard error, and the analytic value.

    Cells: one per cluster size (the p_x grid runs inside the cell).
    """
    cells = tuple(CellSpec({"m": m}, seed + m) for m in cluster_sizes)

    def reduce(outcomes) -> List[dict]:
        return [row for o in outcomes for row in o.value]

    return ExperimentSpec(
        "F2",
        privacy_cell,
        cells,
        reduce,
        context={
            "config": IcpdaConfig(),
            "num_nodes": num_nodes,
            "px_grid": tuple(px_grid),
            "draws": draws,
            "base_seed": seed,
        },
    )


def _mean_hops(exchange) -> float:
    lengths = [len(t.links) for t in exchange.share_log]
    if not lengths:
        return 1.0
    return sum(lengths) / len(lengths)
