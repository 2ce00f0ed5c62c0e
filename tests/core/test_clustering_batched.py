"""Protocol-level contracts of the batched clustering backend.

Mirrors ``test_exchange_batched.py`` for phase II:

1. **Exact equality on a lossless transport** — the batched cascade
   consumes the same ``cluster.{round}`` stream with the same draw kinds
   in the same chronological order as the scalar engine, so on the
   loopback fake (no loss, no contention) elections, JOIN resolution,
   dissolve/rejoin, member lists, the census, and the unclustered set
   must all match exactly — on grids and on randomized geometric
   topologies, including ones where two heads claim the same member.
2. **Seeded reproducibility** — a batched formation is a pure function
   of (seed, config, topology).
3. **Config guardrail** — unknown engine names fail fast at config
   construction (the same check the cell-cache key relies on).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregation.tree import build_aggregation_tree
from repro.core.clustering import ClusterFormation
from repro.core.clustering_batched import BatchedClusterFormation
from repro.core.config import IcpdaConfig
from repro.errors import ConfigError
from repro.topology.deploy import uniform_deployment
from tests.net.loopback import FakeSim, LoopbackTransport, grid_topology

#: Geometric random topologies dense enough to stay connected.
RANDOM_TOPOLOGY_SEEDS = (2, 11, 23, 37)


def _random_adjacency(seed: int, num_nodes: int = 48):
    rng = np.random.default_rng(seed)
    deployment = uniform_deployment(
        num_nodes, field_size=220.0, radio_range=62.0, rng=rng
    )
    return dict(enumerate(deployment.links.rows))


def _run_formation(cfg: IcpdaConfig, adjacency, seed: int):
    fake = LoopbackTransport(adjacency, sim=FakeSim(seed=seed))
    tree = build_aggregation_tree(fake)
    formation_cls = (
        BatchedClusterFormation
        if cfg.engine == "batched"
        else ClusterFormation
    )
    clustering = formation_cls(fake, tree, cfg, round_id=0).run()
    return fake, clustering


def _summary(fake, clustering):
    counters = fake.counters
    return (
        {
            head: (tuple(sorted(cluster.members)), cluster.active)
            for head, cluster in clustering.clusters.items()
        },
        dict(clustering.membership),
        frozenset(clustering.unclustered),
        dict(clustering.census_at_bs),
        counters.total_messages,
        counters.total_bytes,
    )


def _run_summary(backend: str, adjacency, seed: int):
    fake, clustering = _run_formation(
        IcpdaConfig(engine=backend), adjacency, seed
    )
    return _summary(fake, clustering)


class TestScalarBatchedEquality:
    @pytest.mark.parametrize("seed", [1, 5, 9, 13, 17])
    def test_grid_identical_results(self, seed: int) -> None:
        adjacency = grid_topology(6)
        scalar = _run_summary("scalar", adjacency, seed)
        batched = _run_summary("batched", adjacency, seed)
        assert scalar[0]  # non-vacuous: at least one cluster formed
        assert scalar == batched

    @pytest.mark.parametrize("seed", RANDOM_TOPOLOGY_SEEDS)
    def test_random_topology_identical_results(self, seed: int) -> None:
        adjacency = _random_adjacency(seed)
        scalar = _run_summary("scalar", adjacency, seed)
        batched = _run_summary("batched", adjacency, seed)
        assert scalar[0]
        assert scalar == batched

    @pytest.mark.parametrize("backend", ["scalar", "batched"])
    def test_member_claims_disjoint_invariant(self, backend: str) -> None:
        """Formation itself can never double-claim a member (each node
        has one outstanding JOIN; rejected or dissolved joiners leave
        the old queue) — pin that invariant on both backends. Contested
        membership therefore only enters via forged/attacked cluster
        state; its scalar/batched equality is covered end-to-end in
        test_report_batched.py and test_exchange_batched.py."""
        for seed in RANDOM_TOPOLOGY_SEEDS:
            _, clustering = _run_formation(
                IcpdaConfig(engine=backend),
                _random_adjacency(seed),
                seed,
            )
            claims: dict = {}
            for head, cluster in clustering.clusters.items():
                for member in cluster.members:
                    if member != head:
                        claims.setdefault(member, set()).add(head)
            assert all(len(heads) == 1 for heads in claims.values())


class TestBatchedDeterminism:
    def test_same_seed_same_clustering(self) -> None:
        adjacency = grid_topology(6)
        assert _run_summary("batched", adjacency, 9) == _run_summary(
            "batched", adjacency, 9
        )

    def test_different_seed_different_clustering(self) -> None:
        adjacency = grid_topology(6)
        assert _run_summary("batched", adjacency, 9) != _run_summary(
            "batched", adjacency, 10
        )

    def test_rejects_unknown_backend(self) -> None:
        with pytest.raises(ConfigError, match="engine"):
            IcpdaConfig(engine="gpu")
