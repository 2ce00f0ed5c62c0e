"""Protocol-level contracts of the batched share-exchange engine.

Four layers:

1. **Exact equality on a lossless transport** — on the loopback fake the
   in-process engine must reproduce the event-driven exchange: per-cluster
   states and sums, witness sums, the ``share_log`` multiset, and the
   per-kind message and byte totals of every exchange frame (the replay
   sends the scalar frames at their scalar instants). Only mask-dependent
   values (shares, F-values) differ, because the engine draws its masks
   from its own stream.
2. **Seeded reproducibility** — a batched run is a pure function of
   (seed, config, deployment).
3. **Membership-conflict symmetry** — a member claimed by two clusters
   aborts *both* clusters, on either backend, while disjoint clusters
   proceed.
4. **The documented divergence on a lossy transport** — on ``fluid-bulk``
   with the same clustering, completed clusters and sums equal scalar,
   and exchange bytes differ only by the ARQ retransmits the engine does
   not replay.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest

from repro.aggregation.functions import FixedPointCodec, make_aggregate
from repro.aggregation.tree import build_aggregation_tree
from repro.core.clustering import Cluster, ClusterFormation, ClusteringResult
from repro.core.clustering_batched import BatchedClusterFormation
from repro.core.config import IcpdaConfig
from repro.core.field import DEFAULT_FIELD
from repro.core.intracluster import (
    FSET_KIND,
    FVALUE_ACK_KIND,
    FVALUE_KIND,
    SHARE_ACK_KIND,
    SHARE_KIND,
    SHARE_RELAY_KIND,
    IntraClusterExchange,
)
from repro.core.protocol import IcpdaProtocol
from repro.crypto.keys import PairwiseKeyScheme
from repro.crypto.linksec import LinkSecurity
from repro.crypto.predistribution import RandomPredistributionScheme
from repro.errors import ConfigError
from repro.service.queries import build_batch_aggregate
from repro.topology.deploy import uniform_deployment
from tests.counter_reads import kind_totals
from tests.net.loopback import FakeSim, LoopbackTransport, grid_topology

EXCHANGE_KINDS = (
    SHARE_KIND,
    SHARE_RELAY_KIND,
    SHARE_ACK_KIND,
    FVALUE_KIND,
    FVALUE_ACK_KIND,
    FSET_KIND,
)


class _RecordingTrace:
    """Trace sink keeping (category, fields) of every record."""

    on = True

    def __init__(self) -> None:
        self.records = []

    def emit(self, category, message, **fields) -> None:
        self.records.append((category, tuple(sorted(fields.items()))))


def _run_exchange(
    cfg: IcpdaConfig,
    seed: int = 5,
    side: int = 6,
    linksec=None,
    participating=None,
    clustering=None,
    aggregate=None,
):
    """One formation + exchange over a lossless ``side`` x ``side`` grid
    (``aggregate`` defaults to ``cfg.aggregate_name``'s); returns
    (exchange result, transport, trace)."""
    fake = LoopbackTransport(grid_topology(side), sim=FakeSim(seed=seed))
    trace = fake.sim._trace = _RecordingTrace()
    if clustering is None:
        tree = build_aggregation_tree(fake)
        clustering = ClusterFormation(fake, tree, cfg, round_id=0).run()
    if participating is not None:
        participating = participating(clustering)
    readings = {i: 10.0 + (i % 7) for i in fake.node_ids() if i != 0}
    if aggregate is None:
        aggregate = make_aggregate(
            cfg.aggregate_name, FixedPointCodec(scale=cfg.fixed_point_scale)
        )
    exchange = IntraClusterExchange(
        fake,
        clustering,
        cfg,
        linksec if linksec is not None else LinkSecurity(PairwiseKeyScheme()),
        aggregate,
        readings,
        DEFAULT_FIELD,
        participating_heads=participating,
        round_id=0,
    ).run()
    return exchange, fake, trace


def _summary(exchange):
    return (
        exchange.completed_clusters,
        {
            head: state.cluster_sums
            for head, state in exchange.states.items()
        },
        dict(exchange.witness_sums),
        sum(s.contributors for s in exchange.states.values() if s.completed),
    )


def _full_summary(exchange, fake, trace):
    """Everything the engine promises to reproduce on loopback."""
    counters = fake.counters
    return (
        {
            head: (s.completed, s.aborted_reason, s.contributors, s.cluster_sums)
            for head, s in exchange.states.items()
        },
        dict(exchange.witness_sums),
        collections.Counter(exchange.share_log),
        {kind: kind_totals(counters, kind) for kind in EXCHANGE_KINDS},
        (counters.total_rx_messages, counters.total_rx_bytes),
        exchange.fset_conflicts,
        collections.Counter(
            record for record in trace.records if record[0].startswith("exchange.")
        ),
    )


def _both(make_cfg=IcpdaConfig, **kwargs):
    return [
        _full_summary(*_run_exchange(make_cfg(engine=backend), **kwargs))
        for backend in ("scalar", "batched")
    ]


class TestScalarBatchedEquality:
    def test_lossless_transport_identical_results(self) -> None:
        scalar, fake_s, trace_s = _run_exchange(IcpdaConfig(engine="scalar"))
        batched, fake_b, trace_b = _run_exchange(IcpdaConfig(engine="batched"))
        assert scalar.completed_clusters  # the comparison is non-vacuous
        assert _summary(scalar) == _summary(batched)
        assert _full_summary(scalar, fake_s, trace_s) == _full_summary(
            batched, fake_b, trace_b
        )

    @pytest.mark.parametrize(
        "aggregate",
        [
            make_aggregate("average"),
            make_aggregate("variance"),
            # The served union layout: five kinds in five components.
            build_batch_aggregate(
                ("avg", "sum", "var", "max", "min"), IcpdaConfig().fixed_point_scale
            )[0],
        ],
        ids=["average", "variance", "mixed-batch"],
    )
    def test_multi_component_aggregates(self, aggregate) -> None:
        scalar, fake_s, trace_s = _run_exchange(
            IcpdaConfig(engine="scalar"), aggregate=aggregate
        )
        batched, fake_b, trace_b = _run_exchange(
            IcpdaConfig(engine="batched"), aggregate=aggregate
        )
        assert scalar.completed_clusters
        assert _summary(scalar) == _summary(batched)
        assert _full_summary(scalar, fake_s, trace_s) == _full_summary(
            batched, fake_b, trace_b
        )

    @pytest.mark.parametrize("seed,side", [(9, 8), (3, 7)])
    def test_frames_log_and_traces_identical(self, seed: int, side: int) -> None:
        scalar, batched = _both(seed=seed, side=side)
        assert scalar[2]  # shares were logged
        assert scalar[3][SHARE_RELAY_KIND][0] > 0  # relays are exercised
        assert scalar == batched

    @pytest.mark.parametrize("seed", [3, 5])
    def test_integrity_mode_none(self, seed: int) -> None:
        def make_cfg(**kwargs):
            return IcpdaConfig(integrity_mode="none", **kwargs)

        scalar, batched = _both(make_cfg, seed=seed, side=7)
        assert scalar[3][FSET_KIND] == (0, 0)
        # Without the F-set only members hearing every F-value recover:
        # on a 4-connected grid that is fewer than the witnessed mode's.
        witnessed, _, _ = _run_exchange(IcpdaConfig(), seed=seed, side=7)
        assert 0 < len(scalar[1]) < len(witnessed.witness_sums)
        assert scalar == batched

    def test_restricted_participation(self) -> None:
        def every_other_cluster(clustering):
            heads = sorted(h for h, c in clustering.clusters.items() if c.active)
            return set(heads[::2])

        scalar, batched = _both(participating=every_other_cluster, seed=9, side=8)
        assert 0 < len(scalar[0]) < 13
        assert scalar == batched

    def test_membership_conflict(self) -> None:
        scalar, batched = _both(clustering=_forged_conflict_clustering(), seed=2)
        assert scalar[0][1][1] == "membership_conflict"
        assert scalar == batched

    @pytest.mark.parametrize("pool,ring", [(40, 8), (30, 6)])
    def test_unsecurable_link(self, pool: int, ring: int) -> None:
        """EG predistribution leaves some links without a shared key: the
        members whose row hits one stop there and abort their cluster,
        on both backends alike."""

        def run(backend: str):
            scheme = RandomPredistributionScheme(pool, ring, rng=np.random.default_rng(1))
            scheme.provision_all(list(range(36)))
            return _full_summary(
                *_run_exchange(
                    IcpdaConfig(engine=backend), linksec=LinkSecurity(scheme)
                )
            )

        scalar, batched = run("scalar"), run("batched")
        reasons = collections.Counter(state[1] for state in scalar[0].values())
        assert reasons["no_shared_key"] and reasons[""]
        assert scalar == batched


class TestFullRoundEquality:
    @pytest.mark.parametrize("seed", [1, 7])
    def test_all_batched_engines_match_scalar(self, seed: int) -> None:
        """All three in-process engines together reproduce the scalar
        round on loopback: verdict, value and every byte counter."""
        from tests.core.test_report_batched import _run_round, _summary as round_summary

        def run(backend: str):
            cfg = IcpdaConfig(engine=backend)
            return round_summary(*_run_round(cfg, seed, exchange_engine=backend))

        scalar = run("scalar")
        assert scalar[3] > 0
        assert scalar == run("batched")


class TestBatchedDeterminism:
    def test_same_seed_same_aggregates(self) -> None:
        cfg = IcpdaConfig(engine="batched")
        assert _summary(_run_exchange(cfg, seed=9)[0]) == _summary(
            _run_exchange(cfg, seed=9)[0]
        )

    def test_different_seed_different_schedule(self) -> None:
        cfg = IcpdaConfig(engine="batched")
        a, _, _ = _run_exchange(cfg, seed=9)
        b, _, _ = _run_exchange(cfg, seed=10)
        # Clustering differs with the seed, so so does the outcome shape.
        assert _summary(a) != _summary(b)

    def test_rejects_unknown_backend(self) -> None:
        with pytest.raises(ConfigError, match="engine"):
            IcpdaConfig(engine="gpu")

    def test_block_delay_draws_equal_sequential_draws(self) -> None:
        """The engine draws all send delays in one block; the scalar run
        draws them one by one. Both must read the same stream values."""
        block = np.random.default_rng(4).uniform(0.1, 6.25, size=50)
        rng = np.random.default_rng(4)
        sequential = [float(rng.uniform(0.1, 6.25)) for _ in range(50)]
        assert block.tolist() == sequential


def _forged_conflict_clustering():
    """Three hand-built clusters on a 6x6 grid (ids row-major): two
    share a contested member, the third is disjoint."""
    clusters = {
        1: Cluster(head=1, members=[1, 2, 3]),
        7: Cluster(head=7, members=[7, 8, 3]),  # 3 contested
        28: Cluster(head=28, members=[28, 27, 29]),
    }
    for cluster in clusters.values():
        cluster.informed_members = set(cluster.members)
    membership = {}
    for head, cluster in clusters.items():
        for member in cluster.members:
            membership[member] = head
    return ClusteringResult(
        clusters=clusters,
        membership=membership,
        census_at_bs={h: (c.size, True) for h, c in clusters.items()},
    )


class TestMembershipConflictRegression:
    @pytest.mark.parametrize("backend", ["scalar", "batched"])
    def test_both_claiming_clusters_abort(self, backend: str) -> None:
        cfg = IcpdaConfig(engine=backend)
        fake = LoopbackTransport(grid_topology(6), sim=FakeSim(seed=2))
        readings = {i: 1.0 for i in fake.node_ids() if i != 0}
        aggregate = make_aggregate(
            cfg.aggregate_name, FixedPointCodec(scale=cfg.fixed_point_scale)
        )
        exchange = IntraClusterExchange(
            fake,
            _forged_conflict_clustering(),
            cfg,
            LinkSecurity(PairwiseKeyScheme()),
            aggregate,
            readings,
            DEFAULT_FIELD,
            round_id=0,
        ).run()

        # Symmetric resolution: *both* clusters claiming node 3 abort...
        for head in (1, 7):
            state = exchange.states[head]
            assert state.aborted_reason == "membership_conflict"
            assert not state.completed
            assert state.contributors == 0
        # ...while the disjoint cluster is unaffected and sums exactly.
        clean = exchange.states[28]
        assert clean.completed
        assert clean.cluster_sums == (300,)  # 3 members x 1.0 x scale 100

    def test_conflict_abort_is_iteration_order_independent(self) -> None:
        """Reversing cluster registration order must not change who
        aborts (the original bug let the first-registered cluster keep
        the contested member)."""

        def run_with(clustering) -> dict:
            fake = LoopbackTransport(grid_topology(6), sim=FakeSim(seed=2))
            cfg = IcpdaConfig()
            readings = {i: 1.0 for i in fake.node_ids() if i != 0}
            aggregate = make_aggregate(
                cfg.aggregate_name,
                FixedPointCodec(scale=cfg.fixed_point_scale),
            )
            exchange = IntraClusterExchange(
                fake,
                clustering,
                cfg,
                LinkSecurity(PairwiseKeyScheme()),
                aggregate,
                readings,
                DEFAULT_FIELD,
                round_id=0,
            ).run()
            return {
                head: state.aborted_reason
                for head, state in exchange.states.items()
            }

        forward = _forged_conflict_clustering()
        reversed_ = _forged_conflict_clustering()
        reversed_.clusters = dict(reversed(list(reversed_.clusters.items())))
        assert run_with(forward) == run_with(reversed_)


class TestLossyTransportDivergence:
    def test_fluid_bulk_same_clustering(self) -> None:
        """N=1000 on fluid-bulk, same (batched) clustering on both sides:
        the engine completes the clusters the event-driven exchange
        completes, with the same sums; its bytes differ only by the share
        and F-value retransmits it does not replay."""
        deployment = uniform_deployment(
            1000, field_size=672.0, rng=np.random.default_rng(12)
        )
        readings = dict(
            zip(range(1, 1000), np.random.default_rng(13).uniform(10, 30, 999).tolist())
        )
        clustering_s, scalar, bytes_s = _exchange_on_batched_clustering(
            deployment, readings, "scalar"
        )
        clustering_b, batched, bytes_b = _exchange_on_batched_clustering(
            deployment, readings, "batched"
        )
        assert clustering_s.clusters.keys() == clustering_b.clusters.keys()
        assert len(scalar.completed_clusters) > 100
        assert scalar.completed_clusters == batched.completed_clusters
        for head in scalar.completed_clusters:
            assert scalar.states[head].cluster_sums == batched.states[head].cluster_sums
        assert 0.97 <= bytes_b / bytes_s <= 1.0


def _exchange_on_batched_clustering(deployment, readings, engine: str):
    """Set up on fluid-bulk, form clusters with the batched engine, then
    run the exchange on ``engine`` — a mixed pipeline the ``engine``
    knob does not offer, built phase by phase. Returns (clustering,
    exchange result, exchange bytes)."""
    protocol = IcpdaProtocol(
        deployment, IcpdaConfig(engine="batched"), seed=12, transport="fluid-bulk"
    )
    protocol.setup()
    clustering = BatchedClusterFormation(
        protocol.stack, protocol.tree, protocol.config, round_id=1
    ).run()
    counters = protocol.stack.counters
    before = counters.total_bytes
    exchange = IntraClusterExchange(
        protocol.stack,
        clustering,
        IcpdaConfig(engine=engine),
        protocol.linksec,
        protocol.aggregate,
        readings,
        DEFAULT_FIELD,
        round_id=1,
    ).run()
    return clustering, exchange, counters.total_bytes - before
