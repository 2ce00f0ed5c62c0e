"""Ablation A6: robustness to a fading channel.

The unit-disk model flatters every protocol; real range-edge links are
flaky. This ablation re-runs TAG and iCPDA under increasing edge fading
(reception loss ``edge_fading * (d/r)^4``) and reports who degrades
faster. iCPDA's ARQ'd local exchanges and census/abort accounting
should hold participation up better than its multi-hop report chain
loses data — while TAG, ack-less by design, sheds readings linearly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.aggregation.functions import SumAggregate
from repro.aggregation.tag import TagProtocol
from repro.aggregation.tree import build_aggregation_tree
from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.experiments.common import make_readings
from repro.net.radio import RadioParams
from repro.net.transport import create_transport
from repro.sim.kernel import Simulator
from repro.topology.deploy import uniform_deployment


def fading_cell(params: dict, seed: int, context: dict) -> dict:
    """One fading level: paired TAG/iCPDA rounds on the shared
    deployment (rebuilt deterministically from the seed per cell)."""
    fading = params["edge_fading"]
    num_nodes = context["num_nodes"]
    cfg = context["config"]
    deployment = uniform_deployment(num_nodes, rng=np.random.default_rng(seed))
    readings = make_readings(num_nodes, rng=np.random.default_rng(seed + 1))
    radio = RadioParams(range_m=deployment.radio_range, edge_fading=fading)
    transport = context.get("transport", "des")
    sim = Simulator(seed=seed)
    stack = create_transport(transport, sim, deployment, radio=radio)
    tree = build_aggregation_tree(stack)
    tag = TagProtocol(stack, tree, SumAggregate()).run(readings)

    protocol = IcpdaProtocol(
        deployment,
        cfg,
        seed=seed,
        radio=radio,
        transport=transport,
    )
    protocol.setup()
    result = protocol.run_round(readings)
    return {
        "edge_fading": fading,
        "tag_accuracy": round(tag.accuracy, 4),
        "icpda_accuracy": round(result.accuracy, 4)
        if result.verdict.accepted
        else None,
        "icpda_participation": round(result.participation, 4),
        "verdict": result.verdict.value,
        "icpda_faded_frames": protocol.stack.medium.stats.ambient_losses,
    }


def fading_spec(
    fading_levels: Sequence[float] = (0.0, 0.3, 0.6),
    num_nodes: int = 250,
    seed: int = 0,
):
    """Rows per fading level: TAG accuracy, iCPDA accuracy and
    participation, verdict, and channel-level loss counts.

    Cells: one fading level each (same deployment seed throughout).
    """
    from repro.experiments.engine import CellSpec, ExperimentSpec

    cfg = IcpdaConfig()
    cells = tuple(
        CellSpec({"edge_fading": fading}, seed) for fading in fading_levels
    )
    return ExperimentSpec(
        "A6",
        fading_cell,
        cells,
        lambda outcomes: [o.value for o in outcomes],
        context={"num_nodes": num_nodes, "config": cfg},
    )
