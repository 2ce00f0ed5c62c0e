"""Protocol-level contracts of the batched report/verdict backend.

The batched phase IV engine computes witness checks, alarms, and the
verdict in-process and replays the frames through the transport seam.
On the lossless loopback fake it must match the scalar engine *exactly*
— verdicts, aggregates, alarm sets, and byte totals — for honest rounds
and for every pollution strategy, on grids and on drawn deployments and
configurations (a Hypothesis property). On lossy transports only seeded
reproducibility is promised (see docs/PERF.md).

Also pins the NumPy guarantee the scalar witness-flag vectorization in
``repro.core.integrity`` relies on: ``Generator.random(n)`` advances the
bit stream exactly like ``n`` sequential ``random()`` calls.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aggregation.functions import FixedPointCodec, make_aggregate
from repro.aggregation.tree import build_aggregation_tree
from repro.attacks.pollution import PollutionAttack, TamperStrategy
from repro.core.clustering import ClusterFormation
from repro.core.clustering_batched import BatchedClusterFormation
from repro.core.config import IcpdaConfig
from repro.core.field import DEFAULT_FIELD
from repro.core.integrity import ReportAndVerdictPhase
from repro.core.integrity_batched import BatchedReportAndVerdictPhase
from repro.core.intracluster import IntraClusterExchange
from repro.crypto.keys import PairwiseKeyScheme
from repro.crypto.linksec import LinkSecurity
from repro.topology.deploy import uniform_deployment
from tests.net.loopback import FakeSim, LoopbackTransport, grid_topology


def _run_round(
    cfg: IcpdaConfig,
    seed: int,
    side: int = 8,
    attack=None,
    exchange_engine: str = "scalar",
    adjacency=None,
):
    """All four phases over a lossless ``side`` x ``side`` grid (or
    over ``adjacency``, when given).

    ``cfg.engine`` picks the formation and report engines; the exchange
    runs on ``exchange_engine`` (scalar by default, so the comparisons
    here isolate the clustering and report engines)."""
    if adjacency is None:
        adjacency = grid_topology(side)
    fake = LoopbackTransport(adjacency, sim=FakeSim(seed=seed))
    tree = build_aggregation_tree(fake)
    formation_cls = (
        BatchedClusterFormation if cfg.engine == "batched" else ClusterFormation
    )
    clustering = formation_cls(fake, tree, cfg, round_id=0).run()
    readings = {i: 10.0 + (i % 7) for i in fake.node_ids() if i != 0}
    aggregate = make_aggregate(
        cfg.aggregate_name, FixedPointCodec(scale=cfg.fixed_point_scale)
    )
    exchange = IntraClusterExchange(
        fake,
        clustering,
        replace(cfg, engine=exchange_engine),
        LinkSecurity(PairwiseKeyScheme()),
        aggregate,
        readings,
        DEFAULT_FIELD,
        round_id=0,
    ).run()
    report_cls = (
        BatchedReportAndVerdictPhase
        if cfg.engine == "batched"
        else ReportAndVerdictPhase
    )
    result = report_cls(
        fake,
        tree,
        clustering,
        exchange,
        cfg,
        aggregate,
        attack_plan=attack,
        round_id=0,
    ).run(
        aggregate.true_value(list(readings.values())),
        total_sensors=len(readings),
    )
    return fake, result


def _summary(fake, result):
    counters = fake.counters
    return (
        result.verdict,
        result.value,
        result.raw_totals,
        result.contributors,
        result.census_participants,
        # Alarm *list order* may differ between backends when two
        # propagations interleave; the verdict only reads the set.
        frozenset(
            (a.witness, a.suspect, a.reason, a.cluster) for a in result.alarms
        ),
        dict(result.suspect_counts),
        counters.total_messages,
        counters.total_bytes,
        counters.total_rx_messages,
        counters.total_rx_bytes,
    )


def _run_summary(backend: str, seed: int, attack=None):
    fake, result = _run_round(
        IcpdaConfig(engine=backend), seed, attack=attack
    )
    return _summary(fake, result)


class TestScalarBatchedEquality:
    @pytest.mark.parametrize("seed", [1, 3, 5, 7, 11])
    def test_honest_round_identical(self, seed: int) -> None:
        scalar = _run_summary("scalar", seed)
        batched = _run_summary("batched", seed)
        assert scalar[3] > 0  # non-vacuous: someone contributed
        assert scalar == batched

    @pytest.mark.parametrize("strategy", list(TamperStrategy))
    @pytest.mark.parametrize("seed", [3, 7])
    def test_attacked_round_identical(
        self, strategy: TamperStrategy, seed: int
    ) -> None:
        attackers = {9, 18, 27, 36}
        # PollutionAttack is stateful — one fresh instance per run.
        scalar = _run_summary(
            "scalar", seed, attack=PollutionAttack(attackers, strategy)
        )
        batched = _run_summary(
            "batched", seed, attack=PollutionAttack(attackers, strategy)
        )
        assert scalar == batched

    def test_attacks_actually_bite(self) -> None:
        """At least one (strategy, seed) cell in the sweep above must
        reject the round, otherwise the attacked equality comparisons
        would only ever exercise the honest path."""
        verdicts = set()
        for strategy in TamperStrategy:
            for seed in (3, 7):
                summary = _run_summary(
                    "batched",
                    seed,
                    attack=PollutionAttack({9, 18, 27, 36}, strategy),
                )
                verdicts.add(summary[0].value)
        assert any(v.startswith("rejected") for v in verdicts)


def _deployment(seed: int, num_nodes: int, radio_range: float):
    deployment = uniform_deployment(
        num_nodes,
        field_size=220.0,
        radio_range=radio_range,
        rng=np.random.default_rng(seed),
    )
    return dict(enumerate(deployment.links.rows))


def _near_root(adjacency) -> list:
    """Nodes within two hops of the base station: they relay most
    reports, so an attacker there has traffic to act on."""
    near = {n for hop in adjacency[0] for n in (hop, *adjacency[hop])} - {0}
    return sorted(near) or sorted(set(adjacency) - {0})


def _round_case(seed, num_nodes, radio_range, config, attack=None):
    """A ``report_rounds`` case; ``attack`` is ``(strategy, attacker
    ids, suppress_alarms)`` or None."""
    factory = None
    if attack is not None:
        strategy, attackers, suppress = attack

        def factory():
            # PollutionAttack is stateful — one fresh instance per run.
            return PollutionAttack(set(attackers), strategy, suppress_alarms=suppress)

    return seed, _deployment(seed, num_nodes, radio_range), config, factory


@st.composite
def report_rounds(draw):
    """A random geometric deployment, a report-phase config over it and
    an optional pollution attack by one to four nodes near the base
    station: (seed, adjacency, config without an engine, attack factory
    or None)."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_nodes = draw(st.integers(min_value=20, max_value=90))
    radio_range = draw(st.sampled_from([55.0, 62.0, 70.0, 80.0]))
    config = dict(
        witness_fraction=draw(st.sampled_from([0.25, 0.5, 0.8, 1.0])),
        integrity_mode=draw(st.sampled_from(["witnessed", "none"])),
        count_threshold=draw(st.integers(min_value=0, max_value=6)),
    )
    attack = None
    if draw(st.booleans()):
        near = _near_root(_deployment(seed, num_nodes, radio_range))
        attack = (
            draw(st.sampled_from(list(TamperStrategy))),
            draw(st.lists(st.sampled_from(near), min_size=1, max_size=4, unique=True)),
            draw(st.booleans()),
        )
    return _round_case(seed, num_nodes, radio_range, config, attack)


def _witnessed(witness_fraction: float, count_threshold: int) -> dict:
    return dict(
        witness_fraction=witness_fraction,
        integrity_mode="witnessed",
        count_threshold=count_threshold,
    )


class TestDrawnRoundEquality:
    @given(report_rounds())
    # One rejected round per strategy, with alarms swallowed where
    # suppress_alarms is on.
    @example(
        _round_case(
            550, 51, 62.0, _witnessed(0.5, 2),
            (TamperStrategy.NAIVE_TOTAL, [4, 37], True),
        )
    )
    @example(
        _round_case(
            5753, 90, 55.0, _witnessed(1.0, 6),
            (TamperStrategy.CONSISTENT_OWN, [42, 46, 54], False),
        )
    )
    @example(
        _round_case(
            6776, 66, 55.0, _witnessed(1.0, 4),
            (TamperStrategy.CONSISTENT_CHILD, [42, 50, 53, 58], True),
        )
    )
    @example(
        _round_case(
            9522, 71, 55.0, _witnessed(0.8, 0),
            (TamperStrategy.FORWARD_TAMPER, [22, 23, 69], False),
        )
    )
    @example(
        _round_case(
            4970, 85, 55.0, _witnessed(1.0, 4),
            (TamperStrategy.DROP, [9, 42, 68], True),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_drawn_rounds_identical(self, case) -> None:
        seed, adjacency, config, attack = case
        summaries = []
        for engine in ("scalar", "batched"):
            fake, result = _run_round(
                IcpdaConfig(engine=engine, **config),
                seed,
                attack=None if attack is None else attack(),
                adjacency=adjacency,
            )
            summaries.append(_summary(fake, result))
        assert summaries[0] == summaries[1]


class TestContestedMembershipEquality:
    @pytest.mark.parametrize("seed", [2, 6])
    def test_forged_conflict_round_identical(self, seed: int) -> None:
        """Two clusters claiming the same member abort in the exchange;
        the batched report engine must then replay the REPORT_ABORT
        chains and settle the verdict exactly like the scalar one."""
        from tests.core.test_exchange_batched import (
            _forged_conflict_clustering,
        )

        def run(backend: str):
            cfg = IcpdaConfig(engine=backend)
            fake = LoopbackTransport(grid_topology(6), sim=FakeSim(seed=seed))
            tree = build_aggregation_tree(fake)
            clustering = _forged_conflict_clustering()
            readings = {i: 1.0 for i in fake.node_ids() if i != 0}
            aggregate = make_aggregate(
                cfg.aggregate_name, FixedPointCodec(scale=cfg.fixed_point_scale)
            )
            exchange = IntraClusterExchange(
                fake,
                clustering,
                IcpdaConfig(),
                LinkSecurity(PairwiseKeyScheme()),
                aggregate,
                readings,
                DEFAULT_FIELD,
                round_id=0,
            ).run()
            report_cls = (
                BatchedReportAndVerdictPhase
                if backend == "batched"
                else ReportAndVerdictPhase
            )
            result = report_cls(
                fake,
                tree,
                clustering,
                exchange,
                cfg,
                aggregate,
                round_id=0,
            ).run(
                aggregate.true_value(list(readings.values())),
                total_sensors=len(readings),
            )
            assert exchange.states[1].aborted_reason == "membership_conflict"
            return _summary(fake, result)

        assert run("scalar") == run("batched")


class TestBatchedDeterminism:
    def test_same_seed_same_round(self) -> None:
        assert _run_summary("batched", 5) == _run_summary("batched", 5)

    def test_same_seed_same_attacked_round(self) -> None:
        runs = [
            _run_summary(
                "batched",
                7,
                attack=PollutionAttack({9, 18}, TamperStrategy.DROP),
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestWitnessFlagVectorizationPin:
    def test_random_block_matches_sequential_singles(self) -> None:
        """``Generator.random(n)`` must equal ``n`` sequential
        ``random()`` calls from an identically-seeded generator — the
        property that lets the scalar engine draw witness flags as one
        block without moving any stream position."""
        block = np.random.default_rng(1234).random(257)
        sequential_rng = np.random.default_rng(1234)
        sequential = [sequential_rng.random() for _ in range(257)]
        assert block.tolist() == sequential
