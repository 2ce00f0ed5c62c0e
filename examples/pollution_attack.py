#!/usr/bin/env python3
"""Pollution attack, detection, and attacker localization.

A compromised cluster head inflates the aggregate it reports. The
example shows the full defensive arc the paper describes:

1. witnesses overhear the tampered report, alarms reach the base
   station, the round is rejected;
2. the base station binary-searches cluster subsets over subsequent
   rounds and isolates the attacking cluster in O(log C) probes;
3. a live service bars the attacker from the head role and aggregates
   again; the attacker can still join a cluster as a member, so no
   cluster's readings are sacrificed.

Run:  python examples/pollution_attack.py
"""

import dataclasses

import numpy as np

from repro import (
    AggregationService,
    IcpdaConfig,
    IcpdaProtocol,
    localize_polluter,
    uniform_deployment,
)
from repro.attacks.pollution import TamperStrategy
from repro.attacks.scenario import AttackScenario
from repro.core.localization import expected_probe_bound

SEED = 19
NUM_NODES = 250


def main() -> None:
    rng = np.random.default_rng(SEED)
    deployment = uniform_deployment(NUM_NODES, rng=rng)
    config = IcpdaConfig()
    readings = {i: float(rng.uniform(15.0, 25.0)) for i in range(1, NUM_NODES)}

    # Dry run to learn the cluster layout, then compromise one head.
    dry = IcpdaProtocol(deployment, config, seed=SEED)
    dry.setup()
    dry.run_round(readings)
    heads = [h for h in dry.last_exchange.completed_clusters if h != 0]
    attacker = heads[len(heads) // 2]
    print(f"{len(heads)} reporting clusters; compromising head {attacker}")

    # 1. The attacked round is rejected and the attacker named.
    scenario = AttackScenario(deployment, config, readings=readings, seed=SEED)
    strategy = TamperStrategy.CONSISTENT_OWN
    result, attack = scenario.run_attacked({attacker}, strategy, magnitude=500_000)
    print(f"\nAttacked round verdict: {result.verdict.value}")
    print(f"Witness alarms: "
          f"{[(a.witness, a.suspect, a.reason.value) for a in result.alarms]}")
    print(f"Top suspect: {result.top_suspect()} (truth: {attacker})")
    assert result.detected_pollution

    # 2. Localization by subset re-aggregation.
    def probe(subset):
        restricted = dataclasses.replace(
            scenario, config=config.with_restriction(subset)
        )
        outcome, _ = restricted.run_attacked(
            {attacker}, strategy, magnitude=500_000
        )
        return outcome.detected_pollution

    search = localize_polluter(probe, heads)
    bound = expected_probe_bound(len(heads))
    print(f"\nLocalization: isolated {search.suspects} in "
          f"{search.probes_used} probes (log2 bound: {bound})")
    assert search.suspects == (attacker,)

    # 3. Bar the culprit from the head role on a live service and collect.
    service = AggregationService(
        deployment,
        config,
        seed=SEED,
        readings_provider=lambda epoch: readings,
        attack_plan=attack,
    )
    service.exclude(search.suspects)
    answer = service.collect("sum")
    final = service.history[-1].result
    print(f"\nPost-exclusion epoch {answer.epoch}: {answer.verdict.value}, "
          f"accuracy {final.accuracy:.4f}, "
          f"participation {answer.participation:.3f} "
          f"(node {attacker} barred from the head role)")
    assert answer.accepted
    assert attacker not in service.protocol.last_clustering.clusters
    print("\nOK: pollution detected, attacker localized in O(log C) "
          "rounds, service restored.")


if __name__ == "__main__":
    main()
