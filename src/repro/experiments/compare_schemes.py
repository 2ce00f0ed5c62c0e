"""Experiment F9: scheme comparison — TAG vs slicing vs iCPDA.

The family's positioning argument on one table: for the same deployment
and workload, what does each scheme deliver on accuracy, bytes, privacy
against a p_x link eavesdropper, and integrity protection? TAG has
neither defence; slicing buys privacy with an l-linear overhead and a
mask-scale fragility; iCPDA buys privacy *and* detectable integrity at a
cluster-size-dependent overhead.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.aggregation.functions import SumAggregate
from repro.aggregation.slicing import SlicingAggregation
from repro.aggregation.tag import TagProtocol
from repro.aggregation.tree import build_aggregation_tree
from repro.attacks.eavesdrop import EavesdropAnalysis
from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.crypto.adversary_keys import LinkBreakModel
from repro.crypto.keys import PairwiseKeyScheme
from repro.crypto.linksec import LinkSecurity
from repro.experiments.engine import CellSpec, ExperimentSpec
from repro.metrics.privacy import DisclosureStats
from repro.net.transport import create_transport
from repro.sim.kernel import Simulator
from repro.topology.deploy import uniform_deployment

#: The schemes the comparison table reports, in row order.
SCHEMES = ("tag", "slicing_l2", "slicing_l3", "icpda")


def _mc_disclosure(log_owner, p_x: float, seed: int, draws: int = 100) -> float:
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(draws):
        model = LinkBreakModel(p_x, rng=rng)
        stats, _ = EavesdropAnalysis(log_owner, model).run()
        parts.append(stats)
    return DisclosureStats.pooled(parts).probability


def compare_cell(params: dict, seed: int, context: dict) -> dict:
    """One scheme on the shared deployment/workload (rebuilt from the
    same seed in every cell, so cells stay independent)."""
    scheme = params["scheme"]
    num_nodes = context["num_nodes"]
    p_x = context["p_x"]
    cfg = context["config"]
    transport = context.get("transport", "des")
    rng = np.random.default_rng(seed)
    readings = {i: float(rng.uniform(10.0, 30.0)) for i in range(1, num_nodes)}
    deployment = uniform_deployment(num_nodes, rng=np.random.default_rng(seed + 1))

    if scheme == "tag":
        sim = Simulator(seed=seed)
        stack = create_transport(transport, sim, deployment)
        tree = build_aggregation_tree(stack)
        tag_result = TagProtocol(stack, tree, SumAggregate()).run(readings)
        return {
            "scheme": "tag",
            "accuracy": round(tag_result.accuracy, 4),
            "bytes": stack.counters.total_bytes,
            "p_disclose": 1.0,  # readings travel in cleartext
            "integrity": "none",
        }

    if scheme.startswith("slicing_l"):
        num_slices = int(scheme[len("slicing_l") :])
        sim = Simulator(seed=seed)
        stack = create_transport(transport, sim, deployment)
        tree = build_aggregation_tree(stack)
        slicing = SlicingAggregation(
            stack,
            tree,
            SumAggregate(),
            LinkSecurity(PairwiseKeyScheme()),
            num_slices=num_slices,
        )
        result = slicing.run(readings)
        return {
            "scheme": scheme,
            "accuracy": round(result.tag.accuracy, 4),
            "bytes": stack.counters.total_bytes,
            "p_disclose": round(
                _mc_disclosure(result, p_x, seed + num_slices), 5
            ),
            "integrity": "none",
        }

    protocol = IcpdaProtocol(deployment, cfg, seed=seed, transport=transport)
    protocol.setup()
    icpda = protocol.run_round(readings)
    return {
        "scheme": "icpda",
        "accuracy": round(icpda.accuracy, 4) if icpda.verdict.accepted else None,
        "bytes": protocol.total_bytes(),
        "p_disclose": round(
            _mc_disclosure(protocol.last_exchange, p_x, seed + 9), 5
        ),
        "integrity": "witnessed+Th",
    }


def compare_spec(
    num_nodes: int = 300,
    p_x: float = 0.05,
    seed: int = 0,
    config: Optional[IcpdaConfig] = None,
) -> ExperimentSpec:
    """Rows: one per scheme (tag, slicing l=2, slicing l=3, icpda).

    Cells: one per scheme; reduce: rows in :data:`SCHEMES` order.
    """
    cfg = config if config is not None else IcpdaConfig()
    cells = tuple(CellSpec({"scheme": scheme}, seed) for scheme in SCHEMES)
    return ExperimentSpec(
        "F9",
        compare_cell,
        cells,
        lambda outcomes: [o.value for o in outcomes],
        context={"num_nodes": num_nodes, "p_x": p_x, "config": cfg},
    )
