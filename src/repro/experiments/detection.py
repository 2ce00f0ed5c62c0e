"""Experiment F6: pollution-detection ratio and false alarms.

Sweeps the number of simultaneous (non-colluding) attackers and the
tamper strategy, reporting the detection ratio over attacked rounds and
the false-alarm ratio over paired clean rounds, next to the analytic
detection model.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from repro.analysis.detection import prob_detect_multiple
from repro.attacks.pollution import TamperStrategy
from repro.attacks.scenario import run_detection_trials
from repro.core.config import IcpdaConfig
from repro.experiments.engine import CellSpec, ExperimentSpec


def detection_cell(params: dict, seed: int, context: dict) -> dict:
    """One paired attacked/clean trial: raw detection counts."""
    stats, _, _ = run_detection_trials(
        num_nodes=context["num_nodes"],
        num_attackers=params["attackers"],
        strategy=TamperStrategy(params["strategy"]),
        trials=1,
        config=context["config"],
        base_seed=seed,
        transport=context.get("transport", "des"),
    )
    return dataclasses.asdict(stats)


def _pool_ratios(values: Sequence[dict]) -> dict:
    attacked = sum(v["attacked_rounds"] for v in values)
    detected = sum(v["detected"] for v in values)
    clean = sum(v["clean_rounds"] for v in values)
    false_alarms = sum(v["false_alarms"] for v in values)
    return {
        "detection_ratio": round(detected / attacked, 3) if attacked else None,
        "false_alarm_ratio": round(false_alarms / clean, 3) if clean else 0.0,
    }


def detection_spec(
    attacker_counts: Sequence[int] = (1, 2, 3, 5),
    num_nodes: int = 300,
    trials: int = 4,
    base_seed: int = 0,
) -> ExperimentSpec:
    """Rows per attacker count: detection ratio, false-alarm ratio,
    analytic detection probability.

    Cells: one per ``(attacker count, trial)``; reduce: pooled ratios
    plus the analytic detection probability per count.
    """
    attacker_counts = tuple(attacker_counts)
    strategy = TamperStrategy.NAIVE_TOTAL
    cfg = IcpdaConfig()
    mean_m = (cfg.k_min + cfg.k_max) / 2.0
    cells = tuple(
        CellSpec(
            {"attackers": count, "strategy": strategy.value, "trial": trial},
            base_seed + count * 10_000 + trial,
        )
        for count in attacker_counts
        for trial in range(trials)
    )

    def reduce(outcomes) -> List[dict]:
        rows: List[dict] = []
        for count in attacker_counts:
            values = [o.value for o in outcomes if o.params["attackers"] == count]
            if not values:
                continue
            pooled = _pool_ratios(values)
            rows.append(
                {
                    "attackers": count,
                    "strategy": strategy.value,
                    "detection_ratio": pooled["detection_ratio"],
                    "false_alarm_ratio": pooled["false_alarm_ratio"],
                    "analytic_detection": round(
                        prob_detect_multiple(
                            count,
                            int(round(mean_m)),
                            witness_fraction=cfg.witness_fraction,
                        ),
                        3,
                    ),
                }
            )
        return rows

    return ExperimentSpec(
        "F6",
        detection_cell,
        cells,
        reduce,
        context={"num_nodes": num_nodes, "config": cfg},
    )


def collusion_cell(params: dict, seed: int, context: dict) -> dict:
    """One collusion trial: did the witnessed check still fire?"""
    import numpy as np

    from repro.attacks.pollution import PollutionAttack
    from repro.attacks.scenario import AttackScenario
    from repro.core.protocol import IcpdaProtocol
    from repro.topology.deploy import uniform_deployment

    cfg = context["config"]
    transport = context.get("transport", "des")
    colluding_fraction = params["colluding_fraction"]
    rng = np.random.default_rng(seed)
    deployment = uniform_deployment(context["num_nodes"], rng=rng)
    scenario = AttackScenario(deployment, cfg, seed=seed)
    # Dry run to learn the attacker's cluster membership.
    protocol = IcpdaProtocol(deployment, cfg, seed=seed, transport=transport)
    protocol.setup()
    protocol.run_round(scenario.readings)
    heads = [h for h in protocol.last_exchange.completed_clusters if h != 0]
    attacker = heads[len(heads) // 2]
    members = [
        m
        for m in protocol.last_exchange.states[attacker].participants
        if m != attacker
    ]
    count = int(round(len(members) * colluding_fraction))
    colluders = set(members[:count])
    attack = PollutionAttack(
        {attacker},
        TamperStrategy.CONSISTENT_OWN,
        colluders=colluders,
    )
    attacked = IcpdaProtocol(
        deployment, cfg, seed=seed, attack_plan=attack, transport=transport
    )
    attacked.setup()
    result = attacked.run_round(scenario.readings)
    return {"detected": bool(result.detected_pollution)}


def collusion_spec(
    num_nodes: int = 250,
    trials: int = 3,
    base_seed: int = 0,
) -> ExperimentSpec:
    """The paper's future-work boundary, measured: detection of a
    tampering head as an increasing fraction of its own cluster
    colludes (performs the protocol but never witnesses).

    Expected: detection stays high while >= 1 honest member remains and
    collapses when the whole cluster colludes — quantifying exactly why
    the paper scopes collusive attacks out.

    Rows per colluding fraction: detection ratio and trial count.
    Cells: one per ``(colluding fraction, trial)``.
    """
    cfg = IcpdaConfig()
    fractions = (0.0, 0.5, 1.0)
    cells = tuple(
        CellSpec(
            {"colluding_fraction": fraction, "trial": trial},
            base_seed + trial * 131,
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
                if o.params["colluding_fraction"] == fraction
            ]
            if not values:
                continue
            detected = sum(int(v["detected"]) for v in values)
            rows.append(
                {
                    "colluding_fraction": fraction,
                    "detection_ratio": round(detected / len(values), 3),
                    "trials": len(values),
                }
            )
        return rows

    return ExperimentSpec(
        "A3",
        collusion_cell,
        cells,
        reduce,
        context={"num_nodes": num_nodes, "config": cfg},
    )


def run_strategy_matrix(
    num_nodes: int = 300,
    trials: int = 3,
    base_seed: int = 0,
) -> List[dict]:
    """Detection per tamper strategy with a single attacker — exercises
    every witness check (see the strategy table in
    :mod:`repro.attacks.pollution`)."""
    rows: List[dict] = []
    for strategy in TamperStrategy:
        stats, _, _ = run_detection_trials(
            num_nodes=num_nodes,
            num_attackers=1,
            strategy=strategy,
            trials=trials,
            base_seed=base_seed,
        )
        rows.append(
            {
                "strategy": strategy.value,
                "detection_ratio": round(stats.detection_ratio, 3),
                "false_alarm_ratio": round(stats.false_alarm_ratio, 3),
            }
        )
    return rows
