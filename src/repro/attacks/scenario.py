"""Attack scenario drivers for the detection experiments.

Bundles the boilerplate of "run the same network with and without an
attacker and compare verdicts" so the benchmarks and examples stay
short. Attacker placement matters: a pollution attacker only acts when
it actually becomes a cluster head or sits on a relay path, so the
driver re-picks attackers among the nodes that *held an aggregation
role* in a dry-run round — mirroring the paper's "non-leaf aggregation
node close to the root" concern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.attacks.pollution import PollutionAttack, TamperStrategy
from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.core.results import RoundResult
from repro.errors import ReproError
from repro.metrics.detection import DetectionStats
from repro.topology.deploy import Deployment, uniform_deployment


@dataclass
class AttackScenario:
    """One deployment + reading set, runnable clean or attacked.

    Parameters
    ----------
    deployment:
        The network under test.
    config:
        Protocol configuration.
    readings:
        sensor id -> reading; generated uniformly in [10, 30) when
        omitted.
    seed:
        Master seed for the protocol instance.
    """

    deployment: Deployment
    config: IcpdaConfig
    readings: Optional[Dict[int, float]] = None
    seed: int = 0
    transport: str = "des"

    def __post_init__(self) -> None:
        if self.readings is None:
            rng = np.random.default_rng(self.seed)
            self.readings = {
                i: float(rng.uniform(10.0, 30.0))
                for i in range(1, self.deployment.num_nodes)
            }

    def run_clean(self, round_id: int = 0) -> RoundResult:
        """One honest round."""
        protocol = IcpdaProtocol(
            self.deployment, self.config, seed=self.seed, transport=self.transport
        )
        protocol.setup()
        return protocol.run_round(self.readings, round_id=round_id)

    def candidate_attackers(self, role: str = "head") -> List[int]:
        """Nodes that held an aggregation role in a dry-run round — the
        positions from which pollution is actually possible.

        ``role="head"`` returns completed cluster heads (report-tampering
        positions); ``role="relay"`` returns non-head nodes on the tree
        path between a reporting head and its absorber (forward-tampering
        and drop positions).
        """
        if role not in ("head", "relay"):
            raise ReproError(f"role must be 'head' or 'relay', got {role!r}")
        protocol = IcpdaProtocol(
            self.deployment, self.config, seed=self.seed, transport=self.transport
        )
        tree = protocol.setup()
        protocol.run_round(self.readings)
        assert protocol.last_exchange is not None
        bs = self.deployment.base_station
        heads = {
            head
            for head in protocol.last_exchange.completed_clusters
            if head != bs
        }
        if role == "head":
            return sorted(heads)
        relays: Set[int] = set()
        for head in heads:
            node = tree.parents.get(head)
            while node is not None and node != bs:
                if node in heads:
                    break  # a head on the path absorbs the report
                relays.add(node)
                node = tree.parents.get(node)
        return sorted(relays - heads)

    def run_attacked(
        self,
        attackers: Set[int],
        strategy: TamperStrategy = TamperStrategy.NAIVE_TOTAL,
        magnitude: int = 10_000,
    ) -> Tuple[RoundResult, PollutionAttack]:
        """One round with the given attackers active."""
        attack = PollutionAttack(
            attackers=attackers, strategy=strategy, magnitude=magnitude
        )
        protocol = IcpdaProtocol(
            self.deployment,
            self.config,
            seed=self.seed,
            attack_plan=attack,
            transport=self.transport,
        )
        protocol.setup()
        result = protocol.run_round(self.readings)
        return result, attack


def run_detection_trials(
    *,
    num_nodes: int = 400,
    num_attackers: int = 1,
    strategy: TamperStrategy = TamperStrategy.NAIVE_TOTAL,
    trials: int = 5,
    config: Optional[IcpdaConfig] = None,
    base_seed: int = 0,
    transport: str = "des",
) -> Tuple[DetectionStats, List[RoundResult], List[RoundResult]]:
    """Paired attacked/clean trials for the detection-ratio experiment.

    Each trial deploys a fresh network, picks ``num_attackers`` heads
    from a dry run, then runs one attacked and one clean round.

    Returns ``(stats, attacked_results, clean_results)``. Attacked rounds
    where the attacker never acted (e.g. it drew no traffic) are excluded
    from the detection denominator by construction — attackers are placed
    on completed heads, so this is rare and surfaced via ``ReproError``
    if placement is impossible.
    """
    if trials < 1:
        raise ReproError(f"trials must be >= 1, got {trials}")
    cfg = config if config is not None else IcpdaConfig()
    attacked_results: List[RoundResult] = []
    clean_results: List[RoundResult] = []
    role = (
        "relay"
        if strategy in (TamperStrategy.FORWARD_TAMPER, TamperStrategy.DROP)
        else "head"
    )
    for trial in range(trials):
        seed = base_seed + trial
        rng = np.random.default_rng(seed)
        deployment = uniform_deployment(num_nodes, rng=rng)
        scenario = AttackScenario(deployment, cfg, seed=seed, transport=transport)
        candidates = scenario.candidate_attackers(role=role)
        if len(candidates) < num_attackers:
            raise ReproError(
                f"trial {trial}: only {len(candidates)} candidate heads "
                f"for {num_attackers} attackers"
            )
        picked = set(
            int(c) for c in rng.choice(candidates, size=num_attackers, replace=False)
        )
        attacked, _ = scenario.run_attacked(picked, strategy=strategy)
        attacked_results.append(attacked)
        clean_results.append(scenario.run_clean(round_id=1))
    stats = DetectionStats.from_rounds(attacked_results, clean_results)
    return stats, attacked_results, clean_results
