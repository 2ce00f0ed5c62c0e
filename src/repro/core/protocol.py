"""The full iCPDA protocol orchestrator.

Wires the four phases over one simulated network:

* **Phase I** (once per deployment): HELLO-flood aggregation tree.
* **Phase II** (per round): randomized cluster formation + census.
* **Phase III** (per round): intra-cluster CPDA share exchange.
* **Phase IV** (per round): witnessed report aggregation + verdict.

Example
-------
>>> import numpy as np
>>> from repro.topology import uniform_deployment
>>> from repro.core import IcpdaConfig, IcpdaProtocol
>>> deployment = uniform_deployment(120, rng=np.random.default_rng(1))
>>> protocol = IcpdaProtocol(deployment, IcpdaConfig(), seed=7)
>>> tree = protocol.setup()
>>> readings = {i: 20.0 for i in range(1, 120)}
>>> result = protocol.run_round(readings)
>>> result.verdict.accepted
True
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.aggregation.functions import (
    AdditiveAggregate,
    FixedPointCodec,
    make_aggregate,
)
from repro.aggregation.tree import TreeBuildResult, build_aggregation_tree
from repro.core.clustering import ClusterFormation, ClusteringResult
from repro.core.clustering_batched import BatchedClusterFormation
from repro.core.config import IcpdaConfig
from repro.core.field import DEFAULT_FIELD
from repro.core.integrity import AttackPlan, ReportAndVerdictPhase
from repro.core.integrity_batched import BatchedReportAndVerdictPhase
from repro.core.intracluster import ExchangeResult, IntraClusterExchange
from repro.core.results import RoundResult
from repro.crypto.keys import PairwiseKeyScheme
from repro.crypto.linksec import LinkSecurity
from repro.errors import ProtocolError
from repro.net.radio import RadioParams
from repro.net.transport import OverhearListener, Transport, create_transport
from repro.sim.kernel import Simulator
from repro.sim.profiling import PhaseProfiler
from repro.sim.trace import TraceLog
from repro.topology.deploy import Deployment


class IcpdaProtocol:
    """One iCPDA instance bound to a deployment.

    Parameters
    ----------
    deployment:
        The geometric network.
    config:
        Protocol tunables.
    seed:
        Master seed: together with ``deployment`` and ``config`` it fully
        determines the run.
    linksec:
        Link-encryption facade; defaults to ideal pairwise keys.
    attack_plan:
        Optional pollution adversary hooks (see
        :class:`repro.core.integrity.AttackPlan`).
    radio:
        Optional physical-layer override (e.g. an ``edge_fading``
        channel); must match the deployment's radio range.
    aggregate:
        Optional pre-built aggregate instance overriding
        ``config.aggregate_name`` — needed when the aggregate takes
        constructor arguments the name cannot express (e.g.
        ``MaxApproxAggregate(power=3)`` whose default power would
        overflow the share field).
    transport:
        Network backend: ``"des"`` (event-simulated, the default) or
        ``"fluid"`` (closed-form loss/delay sampling — fast at large N).
    trace:
        Enable structured tracing (costs memory; great in tests).
    """

    def __init__(
        self,
        deployment: Deployment,
        config: IcpdaConfig,
        seed: int = 0,
        *,
        linksec: Optional[LinkSecurity] = None,
        attack_plan: Optional[AttackPlan] = None,
        radio: Optional["RadioParams"] = None,
        aggregate: Optional[AdditiveAggregate] = None,
        transport: str = "des",
        trace: bool = False,
    ) -> None:
        self.deployment = deployment
        self.config = config
        # trace=False defers to the kernel's default (a telemetry
        # collector, when active, supplies an enabled log); the kernel
        # clock-binds whichever trace it ends up with.
        self.sim = Simulator(
            seed=seed, trace=TraceLog(enabled=True) if trace else None
        )
        self.profiler = PhaseProfiler.for_simulator(self.sim)
        self.transport_kind = transport
        self.stack: Transport = create_transport(
            transport, self.sim, deployment, radio=radio
        )
        self.linksec = (
            linksec if linksec is not None else LinkSecurity(PairwiseKeyScheme())
        )
        self.attack_plan = attack_plan
        if aggregate is not None:
            self.aggregate: AdditiveAggregate = aggregate
        else:
            codec = FixedPointCodec(scale=config.fixed_point_scale)
            self.aggregate = make_aggregate(config.aggregate_name, codec)
        self.tree: Optional[TreeBuildResult] = None
        self.last_clustering: Optional[ClusteringResult] = None
        self.last_exchange: Optional[ExchangeResult] = None
        self.phase_bytes: Dict[str, int] = {}
        #: The ``listeners`` lists of the last round's phases: the
        #: overhear listeners this instance attached, detached when the
        #: next round starts. Listeners attached from outside stay.
        self._listeners: List[List[Tuple[int, OverhearListener]]] = []

    # -- phase I -----------------------------------------------------------------

    def setup(self) -> TreeBuildResult:
        """Build the aggregation tree and disseminate the query
        (Phase I). Idempotent."""
        if self.tree is None:
            self._build_tree()
        return self.tree

    def rebuild_tree(self) -> TreeBuildResult:
        """Re-run Phase I on the current network state.

        Long deployments need this: the aggregation tree is static, so
        when relay nodes die (battery, failure injection) the routes
        through them rot and participation collapses even though the
        survivors could still reach the base station. A rebuild floods a
        fresh HELLO — dead nodes stay silent, so the new tree routes
        around them. Costs one flood (~2 messages/alive node).
        """
        return self._build_tree()

    def _build_tree(self) -> TreeBuildResult:
        """One Phase-I flood, accumulated into ``phase_bytes["tree"]``.

        Accumulate-with-reset semantics: every flood (initial setup and
        every rebuild) *adds* its cost to the ledger, and callers slice
        accounting periods with ``phase_bytes.clear()`` — so Phase-I
        overhead is never silently overwritten mid-deployment.
        """
        with self._phase("tree"):
            self.tree = build_aggregation_tree(
                self.stack, query=self.config.aggregate_name
            )
        return self.tree

    @contextmanager
    def _phase(self, name: str) -> Iterator[None]:
        """Profile one phase and *add* its radio bytes to
        ``phase_bytes[name]``. A phase that raises leaves the ledger
        untouched, so the ledger always sums to the bytes of the phases
        that completed."""
        counters = self.stack.counters
        before = counters.total_bytes
        with self.profiler.phase(name):
            yield
        self.phase_bytes[name] = (
            self.phase_bytes.get(name, 0) + counters.total_bytes - before
        )

    # -- live reconfiguration ----------------------------------------------------

    def exclude_heads(self, nodes) -> IcpdaConfig:
        """Bar ``nodes`` from the aggregator role on the live instance
        (merged with any existing exclusions); returns the new config.

        This is the operator's response to a localized polluter. Only
        the config changes: the simulator clock, RNG streams, network
        stack, energy ledger, byte counters, phase-byte ledger and the
        Phase-I tree stay as they are, so cross-epoch accounting stays
        truthful. Clustering re-reads the exclusions at the next
        :meth:`run_round`.
        """
        self.config = self.config.with_excluded_heads(tuple(nodes))
        return self.config

    def set_aggregate(self, aggregate: AdditiveAggregate) -> None:
        """Install a custom aggregate on the live instance.

        Takes effect at the next :meth:`run_round`. Used by the service
        layer to carry several batched queries through one round as a
        :class:`~repro.aggregation.functions.CompositeAggregate`.
        """
        self.aggregate = aggregate

    # -- rounds -----------------------------------------------------------------

    def run_round(self, readings: Dict[int, float], round_id: int = 0) -> RoundResult:
        """Execute Phases II–IV for one set of sensor readings.

        Parameters
        ----------
        readings:
            sensor id -> raw reading. The base station must not appear.
        round_id:
            Distinguishes successive rounds (re-randomizes clustering).

        Accounting: each phase's byte cost is *added* to
        ``phase_bytes["clustering"/"exchange"/"report"]`` under the same
        accumulate-with-reset contract as ``phase_bytes["tree"]`` —
        multi-epoch callers keep the full per-phase history and slice
        accounting periods with ``phase_bytes.clear()``. (Historically
        these three keys were overwritten every round while the tree key
        accumulated, so long-lived deployments silently lost all but the
        last round's per-phase costs.)

        Raises
        ------
        ProtocolError
            If :meth:`setup` was not called, readings are empty, or the
            base station holds a reading.
        """
        if self.tree is None:
            raise ProtocolError("call setup() before run_round()")
        if not readings:
            raise ProtocolError("a round needs at least one reading")
        if self.deployment.base_station in readings:
            raise ProtocolError("the base station does not sense")

        for listeners in self._listeners:
            for node_id, listener in listeners:
                self.stack.remove_overhear(node_id, listener)
        self._listeners = []
        batched = self.config.engine == "batched"

        # Phase II: cluster formation.
        with self._phase("clustering"):
            if batched:
                formation = BatchedClusterFormation(
                    self.stack, self.tree, self.config, round_id=round_id
                )
            else:
                formation = ClusterFormation(
                    self.stack, self.tree, self.config, round_id=round_id
                )
            clustering = formation.run()
        self.last_clustering = clustering

        participating = self._participating_heads(clustering)

        # Phase III: intra-cluster share exchange (the exchange engine is
        # picked inside IntraClusterExchange.run()).
        with self._phase("exchange"):
            exchange_phase = IntraClusterExchange(
                self.stack,
                clustering,
                self.config,
                self.linksec,
                self.aggregate,
                readings,
                DEFAULT_FIELD,
                participating_heads=participating,
                round_id=round_id,
            )
            self._listeners.append(exchange_phase.listeners)
            exchange = exchange_phase.run()
        self.last_exchange = exchange

        # Phase IV: witnessed report aggregation + verdict.
        with self._phase("report"):
            if batched:
                report_phase = BatchedReportAndVerdictPhase(
                    self.stack, self.tree, clustering, exchange, self.config,
                    self.aggregate, attack_plan=self.attack_plan, round_id=round_id,
                )
            else:
                report_phase = ReportAndVerdictPhase(
                    self.stack, self.tree, clustering, exchange, self.config,
                    self.aggregate, attack_plan=self.attack_plan, round_id=round_id,
                )
            self._listeners.append(report_phase.listeners)
            true_value = self.aggregate.true_value(list(readings.values()))
            result = report_phase.run(true_value, total_sensors=len(readings))
        return result

    # -- helpers -----------------------------------------------------------------

    def _participating_heads(
        self, clustering: ClusteringResult
    ) -> Optional[Set[int]]:
        """Clusters that run the exchange under ``restrict_to_clusters``.

        Intended semantics: ``(restrict ∪ {base station}) ∩ formed
        clusters``. The base station always self-elects and its cluster
        never dissolves (see :class:`ClusterFormation`), so adding it
        here is *not* a no-op intersected away — it guarantees the BS
        cluster participates in every localization subset, keeping the
        verdict's census denominator anchored even when ``restrict``
        names only remote heads. Restricted heads that failed to form
        this round are dropped by the intersection (their members sat the
        round out anyway).
        """
        restrict = self.config.restrict_to_clusters
        if restrict is None:
            return None
        bs = self.deployment.base_station
        assert bs in clustering.clusters, (
            "formation invariant broken: the base station cluster is "
            "always formed (it self-elects and never dissolves)"
        )
        participating = set(restrict)
        participating.add(bs)
        return participating & set(clustering.clusters)

    def total_bytes(self) -> int:
        """All bytes transmitted on this network so far (all phases)."""
        return self.stack.counters.total_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"IcpdaProtocol(nodes={self.deployment.num_nodes}, "
            f"p_c={self.config.p_c}, k=[{self.config.k_min},{self.config.k_max}])"
        )
