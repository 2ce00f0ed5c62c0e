"""Protocol-level contracts of the batched clustering backend.

Mirrors ``test_exchange_batched.py`` for phase II:

1. **Exact equality on a lossless transport** — the batched cascade
   consumes the same ``cluster.{round}`` stream with the same draw kinds
   in the same chronological order as the scalar engine, so on the
   loopback fake (no loss, no contention) elections, JOIN resolution,
   dissolve/rejoin, member lists, the census, and the unclustered set
   must all match exactly — on grids and on randomized geometric
   topologies, including ones where two heads claim the same member,
   and on drawn configurations (a Hypothesis property).
2. **Seeded reproducibility** — a batched formation is a pure function
   of (seed, config, topology).
3. **Config guardrail** — unknown engine names fail fast at config
   construction (the same check the cell-cache key relies on).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def _run_formation(cfg: IcpdaConfig, adjacency, seed: int, round_id: int = 0):
    fake = LoopbackTransport(adjacency, sim=FakeSim(seed=seed))
    tree = build_aggregation_tree(fake)
    formation_cls = (
        BatchedClusterFormation
        if cfg.engine == "batched"
        else ClusterFormation
    )
    clustering = formation_cls(fake, tree, cfg, round_id=round_id).run()
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


@st.composite
def formations(draw):
    """A random geometric deployment and a formation config over it:
    (seed, N, radio range, round id, config without an engine)."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_nodes = draw(st.integers(min_value=20, max_value=120))
    k_min = draw(st.integers(min_value=2, max_value=4))
    k_max = draw(st.integers(min_value=k_min, max_value=k_min + 3))
    config = dict(
        k_min=k_min,
        k_max=k_max,
        p_c=draw(st.sampled_from([0.1, 0.2, 0.25, 0.33, 0.5, 1.0])),
        election_mode=draw(st.sampled_from(["fixed", "adaptive"])),
        excluded_heads=tuple(
            sorted(
                draw(
                    st.sets(
                        st.integers(min_value=0, max_value=num_nodes - 1),
                        max_size=3,
                    )
                )
            )
        ),
    )
    radio_range = draw(st.sampled_from([50.0, 62.0, 70.0, 80.0]))
    round_id = draw(st.integers(min_value=0, max_value=4))
    return seed, num_nodes, radio_range, round_id, config


def _case(seed, num_nodes, radio_range, p_c, k_min, k_max, excluded=()):
    """An ``@example`` in the ``formations`` shape (fixed election, the
    round id ``seed % 5``)."""
    config = dict(
        k_min=k_min,
        k_max=k_max,
        p_c=p_c,
        election_mode="fixed",
        excluded_heads=excluded,
    )
    return seed, num_nodes, radio_range, seed % 5, config


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

    @given(formations())
    # A live head whose second re-join timer (one per dissolve or
    # reject it heard) joined it to another head: node 35 heads its own
    # cluster and is a member of cluster 15.
    @example(_case(3894, 110, 80.0, 0.1, 2, 3))
    # Node 3 in clusters 3 and 29.
    @example(_case(6873, 84, 62.0, 0.5, 4, 5, excluded=(44,)))
    @example(_case(7718, 102, 80.0, 0.1, 3, 3, excluded=(4,)))
    # The base station excluded: its announce must go unheard.
    @example(_case(0, 20, 50.0, 0.1, 2, 2, excluded=(0,)))
    @settings(max_examples=40, deadline=None)
    def test_drawn_configs_identical_results(self, formation) -> None:
        seed, num_nodes, radio_range, round_id, config = formation
        deployment = uniform_deployment(
            num_nodes,
            field_size=220.0,
            radio_range=radio_range,
            rng=np.random.default_rng(seed),
        )
        adjacency = dict(enumerate(deployment.links.rows))
        summaries = []
        for engine in ("scalar", "batched"):
            cfg = IcpdaConfig(engine=engine, **config)
            fake, clustering = _run_formation(cfg, adjacency, seed, round_id)
            summaries.append(_summary(fake, clustering))
        assert summaries[0] == summaries[1]

    @pytest.mark.parametrize("backend", ["scalar", "batched"])
    def test_member_claims_disjoint_invariant(self, backend: str) -> None:
        """Formation yields a partition: each node is listed by at most
        one cluster, heads included (each node has one outstanding JOIN;
        rejected or dissolved joiners leave the old queue, and a live
        head joins no other) — pin that invariant on both backends.
        Contested membership therefore only enters via forged/attacked
        cluster state; its scalar/batched equality is covered end-to-end
        in test_report_batched.py and test_exchange_batched.py."""
        for seed in RANDOM_TOPOLOGY_SEEDS:
            _, clustering = _run_formation(
                IcpdaConfig(engine=backend),
                _random_adjacency(seed),
                seed,
            )
            claims: dict = {}
            for head, cluster in clustering.clusters.items():
                for member in cluster.members:
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
