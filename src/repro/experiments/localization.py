"""Experiment F7: attacker localization in O(log N) rounds.

After a rejected round, the base station probes cluster subsets
(restricted rounds) and binary-searches the polluter. The experiment
measures probes-to-isolation against the ``ceil(log2 C)`` bound across
network sizes. The probe keeps ``round_id`` fixed so clustering is
identical across probes (the restriction names cluster heads).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

import numpy as np

from repro.attacks.pollution import TamperStrategy
from repro.attacks.scenario import AttackScenario
from repro.core.config import IcpdaConfig
from repro.core.localization import expected_probe_bound, localize_polluter
from repro.errors import ReproError
from repro.experiments.engine import CellSpec, ExperimentSpec
from repro.topology.deploy import uniform_deployment


def localize_one(
    num_nodes: int,
    seed: int,
    config: IcpdaConfig,
    transport: str = "des",
) -> Tuple[bool, int, int, int]:
    """One full localization episode.

    Returns ``(found, probes_used, bound, num_clusters)`` where ``found``
    means the isolated suspect cluster is the attacker's cluster.
    """
    rng = np.random.default_rng(seed)
    deployment = uniform_deployment(num_nodes, rng=rng)
    scenario = AttackScenario(deployment, config, seed=seed, transport=transport)
    candidates = scenario.candidate_attackers(role="head")
    if not candidates:
        raise ReproError(f"seed {seed}: no candidate heads to attack")
    attacker = int(rng.choice(candidates))

    def probe(subset: Tuple[int, ...]) -> bool:
        restricted = replace(scenario, config=config.with_restriction(subset))
        result, _ = restricted.run_attacked({attacker}, TamperStrategy.NAIVE_TOTAL)
        return result.detected_pollution

    outcome = localize_polluter(probe, candidates)
    bound = expected_probe_bound(len(candidates))
    found = outcome.converged and outcome.suspects == (attacker,)
    return found, outcome.probes_used, bound, len(candidates)


def localization_cell(params: dict, seed: int, context: dict) -> dict:
    """One localization episode as a cell."""
    found, probes, bound, clusters = localize_one(
        params["nodes"],
        seed=seed,
        config=context["config"],
        transport=context.get("transport", "des"),
    )
    return {
        "found": bool(found),
        "probes": probes,
        "bound": bound,
        "clusters": clusters,
    }


def localization_spec(
    sizes: Sequence[int] = (200, 300, 400),
    trials: int = 2,
    base_seed: int = 0,
) -> ExperimentSpec:
    """Rows per size: isolation success rate, mean probes, log2 bound.

    Cells: one per ``(size, trial)``; reduce: per-size success/probe
    averages against the log2 bound.
    """
    sizes = tuple(sizes)
    cells = tuple(
        CellSpec({"nodes": size, "trial": trial}, base_seed + trial * 31 + size)
        for size in sizes
        for trial in range(trials)
    )

    def reduce(outcomes) -> List[dict]:
        rows: List[dict] = []
        for size in sizes:
            values = [o.value for o in outcomes if o.params["nodes"] == size]
            if not values:
                continue
            n = len(values)
            found_count = sum(int(v["found"]) for v in values)
            rows.append(
                {
                    "nodes": size,
                    "clusters": round(sum(v["clusters"] for v in values) / n, 1),
                    "isolated_ok": f"{found_count}/{n}",
                    "mean_probes": round(sum(v["probes"] for v in values) / n, 1),
                    "log2_bound": round(sum(v["bound"] for v in values) / n, 1),
                }
            )
        return rows

    return ExperimentSpec(
        "F7", localization_cell, cells, reduce, context={"config": IcpdaConfig()}
    )
