"""Protocol-level contracts of the batched report/verdict backend.

The batched phase IV engine computes witness checks, alarms, and the
verdict in-process and replays the frames through the transport seam.
On the lossless loopback fake it must match the scalar engine *exactly*
— verdicts, aggregates, alarm sets, and byte totals — for honest rounds
and for every pollution strategy. On lossy transports only seeded
reproducibility is promised (see docs/PERF.md).

Also pins the NumPy guarantee the scalar witness-flag vectorization in
``repro.core.integrity`` relies on: ``Generator.random(n)`` advances the
bit stream exactly like ``n`` sequential ``random()`` calls.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

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
from tests.net.loopback import FakeSim, LoopbackTransport, grid_topology


def _run_round(
    cfg: IcpdaConfig,
    seed: int,
    side: int = 8,
    attack=None,
    exchange_engine: str = "scalar",
):
    """All four phases over a lossless ``side`` x ``side`` grid.

    ``cfg.engine`` picks the formation and report engines; the exchange
    runs on ``exchange_engine`` (scalar by default, so the comparisons
    here isolate the clustering and report engines)."""
    fake = LoopbackTransport(grid_topology(side), sim=FakeSim(seed=seed))
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
