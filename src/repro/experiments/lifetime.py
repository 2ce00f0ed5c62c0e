"""Experiment F10: network lifetime under a radio energy budget.

Aggregation exists to extend network lifetime; this experiment measures
it end-to-end instead of quoting per-round energy. Every node gets the
same radio battery; rounds run back-to-back on the *same* network with
energy accumulating; a node whose spend exceeds the budget crash-stops
(via the failure-injection substrate) — and the network degrades
realistically: relay-heavy nodes near the base station die first, the
static aggregation tree rots, participation slides, and eventually the
base station cannot accept an answer.

Reported per scheme: rounds until the first node death, rounds until
the answer fails (iCPDA: verdict not accepted; TAG: accuracy below a
floor), plus the per-round trajectory.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.aggregation.functions import SumAggregate
from repro.aggregation.tag import TagProtocol
from repro.aggregation.tree import build_aggregation_tree
from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.experiments.common import make_readings
from repro.net.transport import Transport, create_transport
from repro.sim.kernel import Simulator
from repro.topology.deploy import uniform_deployment

#: TAG accuracy below which the answer is considered failed.
TAG_FAILURE_FLOOR = 0.5


def _deplete(stack: Transport, capacity_j: float, dead: set) -> List[int]:
    """Kill nodes whose cumulative radio spend exceeds the budget;
    returns the newly dead (the base station is mains-powered)."""
    newly_dead = []
    for node_id in stack.node_ids():
        if node_id == 0 or node_id in dead:
            continue
        if stack.energy.spent(node_id) > capacity_j:
            stack.fail_node(node_id)
            dead.add(node_id)
            newly_dead.append(node_id)
    return newly_dead


def run_icpda_lifetime(
    num_nodes: int = 150,
    capacity_j: float = 2.0,
    max_rounds: int = 40,
    config: Optional[IcpdaConfig] = None,
    seed: int = 0,
    field_size: float = 400.0,
    rebuild_on_failure: bool = False,
    rebuild_below: float = 0.6,
    transport: str = "des",
) -> Dict:
    """iCPDA rounds until the base station can no longer accept.

    With ``rebuild_on_failure`` the base station performs **tree
    maintenance**: whenever a round is rejected, *or* participation
    falls below ``rebuild_below`` of the alive fraction (tree rot: dead
    relays silently cutting off live subtrees — the census can't see
    nodes the flood never reached), it re-floods the tree and routes
    around the dead. This separates "tree rotted" from "network
    exhausted".
    """
    cfg = config if config is not None else IcpdaConfig()
    deployment = uniform_deployment(
        num_nodes, field_size=field_size, rng=np.random.default_rng(seed)
    )
    readings = make_readings(num_nodes, rng=np.random.default_rng(seed + 1))
    protocol = IcpdaProtocol(deployment, cfg, seed=seed, transport=transport)
    protocol.setup()
    dead: set = set()
    trajectory: List[dict] = []
    first_death: Optional[int] = None
    failed_at: Optional[int] = None
    rebuilds = 0

    for round_id in range(1, max_rounds + 1):
        alive_readings = {i: v for i, v in readings.items() if i not in dead}
        if not alive_readings:
            failed_at = failed_at or round_id
            break
        result = protocol.run_round(alive_readings, round_id=round_id)
        alive_fraction = len(alive_readings) / (num_nodes - 1)
        rotted = result.participation < rebuild_below * alive_fraction
        if rebuild_on_failure and (not result.verdict.accepted or rotted):
            protocol.rebuild_tree()
            rebuilds += 1
            result = protocol.run_round(
                alive_readings, round_id=round_id + max_rounds
            )
        newly_dead = _deplete(protocol.stack, capacity_j, dead)
        if newly_dead and first_death is None:
            first_death = round_id
        trajectory.append(
            {
                "round": round_id,
                "alive": num_nodes - 1 - len(dead),
                "verdict": result.verdict.value,
                "participation": round(result.participation, 3),
            }
        )
        if not result.verdict.accepted:
            failed_at = round_id
            break
    delivered = sum(
        t["participation"] * t["alive"]
        for t in trajectory
        if t["verdict"] == "accepted"
    )
    return {
        "scheme": "icpda+rebuild" if rebuild_on_failure else "icpda",
        "first_death_round": first_death,
        "failed_at_round": failed_at,
        "rounds_survived": len(
            [t for t in trajectory if t["verdict"] == "accepted"]
        ),
        "rebuilds": rebuilds,
        "readings_delivered": int(delivered),
        "trajectory": trajectory,
    }


def run_tag_lifetime(
    num_nodes: int = 150,
    capacity_j: float = 2.0,
    max_rounds: int = 40,
    seed: int = 0,
    field_size: float = 400.0,
    transport: str = "des",
) -> Dict:
    """TAG epochs until accuracy drops below the failure floor."""
    deployment = uniform_deployment(
        num_nodes, field_size=field_size, rng=np.random.default_rng(seed)
    )
    readings = make_readings(num_nodes, rng=np.random.default_rng(seed + 1))
    sim = Simulator(seed=seed)
    stack = create_transport(transport, sim, deployment)
    tree = build_aggregation_tree(stack)
    protocol = TagProtocol(stack, tree, SumAggregate())
    dead: set = set()
    trajectory: List[dict] = []
    first_death: Optional[int] = None
    failed_at: Optional[int] = None

    for round_id in range(1, max_rounds + 1):
        alive_readings = {i: v for i, v in readings.items() if i not in dead}
        if not alive_readings:
            failed_at = failed_at or round_id
            break
        result = protocol.run(alive_readings)
        newly_dead = _deplete(stack, capacity_j, dead)
        if newly_dead and first_death is None:
            first_death = round_id
        accuracy = result.value / sum(readings.values())
        trajectory.append(
            {
                "round": round_id,
                "alive": num_nodes - 1 - len(dead),
                "accuracy_vs_full": round(accuracy, 3),
            }
        )
        if accuracy < TAG_FAILURE_FLOOR:
            failed_at = round_id
            break
    delivered = sum(
        t["accuracy_vs_full"] * (num_nodes - 1)
        for t in trajectory
        if t.get("accuracy_vs_full", 0) >= TAG_FAILURE_FLOOR
    )
    return {
        "scheme": "tag",
        "first_death_round": first_death,
        "failed_at_round": failed_at,
        "rounds_survived": len(
            [
                t
                for t in trajectory
                if t.get("accuracy_vs_full", 0) >= TAG_FAILURE_FLOOR
            ]
        ),
        "readings_delivered": int(delivered),
        "trajectory": trajectory,
    }


#: The schemes the lifetime table reports, in row order.
LIFETIME_SCHEMES = ("tag", "icpda", "icpda+rebuild")


def lifetime_cell(params: dict, seed: int, context: dict) -> dict:
    """One scheme's full lifetime run, summarized to a table row."""
    kwargs = dict(
        num_nodes=context["num_nodes"],
        capacity_j=context["capacity_j"],
        max_rounds=context["max_rounds"],
        seed=seed,
        field_size=context["field_size"],
        transport=context.get("transport", "des"),
    )
    if params["scheme"] == "tag":
        outcome = run_tag_lifetime(**kwargs)
    else:
        outcome = run_icpda_lifetime(
            rebuild_on_failure=params["scheme"] == "icpda+rebuild", **kwargs
        )
    return {
        "scheme": outcome["scheme"],
        "first_death_round": outcome["first_death_round"],
        "rounds_survived": outcome["rounds_survived"],
        "failed_at_round": outcome["failed_at_round"],
        "rebuilds": outcome.get("rebuilds", 0),
        "readings_delivered": outcome["readings_delivered"],
    }


def lifetime_spec(
    num_nodes: int = 150,
    capacity_j: float = 2.0,
    max_rounds: int = 40,
    seed: int = 0,
    field_size: float = 400.0,
):
    """Summary rows for every scheme in :data:`LIFETIME_SCHEMES` under
    the same battery budget.

    Cells: one full lifetime run per scheme.
    """
    from repro.experiments.engine import CellSpec, ExperimentSpec

    cells = tuple(
        CellSpec({"scheme": scheme}, seed) for scheme in LIFETIME_SCHEMES
    )
    return ExperimentSpec(
        "F10",
        lifetime_cell,
        cells,
        lambda outcomes: [o.value for o in outcomes],
        context={
            "num_nodes": num_nodes,
            "capacity_j": capacity_j,
            "max_rounds": max_rounds,
            "field_size": field_size,
        },
    )
