"""Ablation A7: what the integrity layer costs — and buys.

Runs the identical deployment in ``integrity_mode="witnessed"`` vs
``"none"`` (privacy-only CPDA operation) and reports the delta in
transmitted bytes, per-node radio energy (overhearing costs rx energy,
not tx bytes), and — the point — what happens when a head tampers under
each mode: the witnessed run rejects, the privacy-only run serves the
polluted aggregate with a straight face.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from repro.attacks.pollution import PollutionAttack, TamperStrategy
from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.experiments.common import make_readings
from repro.topology.deploy import uniform_deployment


def integrity_cell(params: dict, seed: int, context: dict) -> dict:
    """One integrity mode: clean + attacked rounds on the shared
    deployment (the attacker head is re-scouted deterministically)."""
    mode = params["mode"]
    num_nodes = context["num_nodes"]
    base = context["config"]
    transport = context.get("transport", "des")
    deployment = uniform_deployment(num_nodes, rng=np.random.default_rng(seed))
    readings = make_readings(num_nodes, rng=np.random.default_rng(seed + 1))
    truth = sum(readings.values())

    # Pick the attacker head from a witnessed dry run — deterministic at
    # a fixed seed, so every mode cell attacks the same head.
    scout = IcpdaProtocol(deployment, base, seed=seed, transport=transport)
    scout.setup()
    scout.run_round(readings)
    heads = [h for h in scout.last_exchange.completed_clusters if h != 0]
    attacker = heads[len(heads) // 2]

    cfg = replace(base, integrity_mode=mode)
    clean = IcpdaProtocol(deployment, cfg, seed=seed, transport=transport)
    clean.setup()
    clean_result = clean.run_round(readings)

    attack = PollutionAttack(
        {attacker},
        TamperStrategy.NAIVE_TOTAL,
        magnitude=context["tamper_magnitude"],
    )
    attacked = IcpdaProtocol(
        deployment, cfg, seed=seed, attack_plan=attack, transport=transport
    )
    attacked.setup()
    attacked_result = attacked.run_round(readings)

    accepted_error = None
    if attacked_result.verdict.accepted and attack.acted():
        accepted_error = round(abs(attacked_result.value - truth) / truth, 3)
    return {
        "mode": mode,
        "bytes": clean.total_bytes(),
        "mJ_per_node": round(
            clean.stack.energy.report().total_j / num_nodes * 1000, 2
        ),
        "clean_verdict": clean_result.verdict.value,
        "attacked_verdict": attacked_result.verdict.value,
        "attack_acted": attack.acted(),
        "accepted_error": accepted_error,
    }


def integrity_cost_spec(
    num_nodes: int = 250,
    config: Optional[IcpdaConfig] = None,
    seed: int = 0,
    tamper_magnitude: int = 10_000_000,
):
    """Rows per mode: bytes, mJ/node, clean verdict, attacked verdict,
    and the attacked round's reported error when it was accepted.

    Cells: one per integrity mode.
    """
    from repro.experiments.engine import CellSpec, ExperimentSpec

    base = config if config is not None else IcpdaConfig()
    cells = tuple(
        CellSpec({"mode": mode}, seed) for mode in ("witnessed", "none")
    )
    return ExperimentSpec(
        "A7",
        integrity_cell,
        cells,
        lambda outcomes: [o.value for o in outcomes],
        context={
            "num_nodes": num_nodes,
            "config": base,
            "tamper_magnitude": tamper_magnitude,
        },
    )
