"""The long-lived aggregation service core (synchronous).

One :class:`AggregationService` owns one live
:class:`~repro.core.protocol.IcpdaProtocol` for the whole deployment
lifetime, so the simulator clock, RNG streams and every energy/byte
ledger run on across epochs instead of resetting per query. Here:

* Phase I (tree flood) runs once and is amortized over every epoch
  (:class:`~repro.sim.profiling.PhaseProfiler` shows it dominating short
  rounds); Phases II–IV re-run per epoch as the paper requires.
* Energy, byte counters, per-phase ledgers, and RNG streams accumulate
  across epochs — the cross-epoch accounting contract the regression
  suite (``tests/service/``) pins.
* Operator exclusion of a localized polluter mutates the live instance
  (:meth:`IcpdaProtocol.exclude_heads`); the deployment is never rebuilt.
  :meth:`AggregationService.collect` is the paper's operator loop on top
  of it: serve, bar the witness-named culprit, re-cluster, until an
  epoch is accepted.
* Every distinct query kind pending at round start rides one composite
  aggregate, so a batch of SUM/AVG/VAR/MIN/MAX costs one round.
* Answers are cached keyed by ``(query, epoch)``; the cache can serve a
  query again *only* for the epoch it was computed in — stale epochs are
  structurally unreachable (see :meth:`answer_from_cache`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.core.results import RoundResult, Verdict
from repro.service.queries import Query, build_batch_aggregate, parse_query
from repro.topology.deploy import Deployment

#: readings_provider signature: epoch number -> {sensor id: reading}.
ReadingsProvider = Callable[[int], Dict[int, float]]

#: Most epochs one :meth:`AggregationService.collect` call serves before
#: it gives up and returns the last, unaccepted answer.
COLLECT_MAX_ROUNDS = 4

#: Answers this many epochs old are pruned from the cache (they could
#: never be served anyway; this bounds memory).
CACHE_EPOCHS = 8


@dataclass(frozen=True)
class ServedAnswer:
    """One query's answer, bound to the epoch that computed it.

    Attributes
    ----------
    query / epoch:
        The cache key. ``epoch`` is the round that produced the answer.
    value:
        The decoded statistic; ``None`` when the round was rejected or
        insufficient (the verdict says why).
    verdict:
        The base station's decision for the underlying round.
    participation:
        Fraction of sensors whose readings reached the aggregate.
    """

    query: Query
    epoch: int
    value: Optional[float]
    verdict: Verdict
    participation: float

    @property
    def accepted(self) -> bool:
        return self.verdict is Verdict.ACCEPTED


@dataclass
class EpochReport:
    """Everything one served epoch produced (operator-facing log line)."""

    epoch: int
    queries: Tuple[Query, ...]
    result: RoundResult
    answers: Dict[Query, ServedAnswer]
    newly_excluded: Tuple[int, ...] = ()


@dataclass
class ServiceStats:
    """Service-side counters (monotonic over the service lifetime)."""

    epochs_served: int = 0
    queries_answered: int = 0
    cache_hits: int = 0
    rounds_rejected: int = 0
    rounds_failed: int = 0
    exclusions: int = 0


class AggregationService:
    """Long-lived iCPDA aggregation over one persistent deployment.

    Parameters
    ----------
    deployment, config, seed:
        As for :class:`~repro.core.protocol.IcpdaProtocol`; the protocol
        instance is built once, here, and lives as long as the service.
    readings_provider:
        Called once per served epoch with the epoch number; returns that
        epoch's sensor readings (base station excluded).
    attack_plan / transport:
        Forwarded to the protocol instance.

    When a served round is rejected and the witnesses name a suspect,
    the service bars it from the head role on the live instance before
    the next epoch (the paper's operator response). Exclusions are
    recorded in :attr:`excluded` and per-epoch reports.
    """

    def __init__(
        self,
        deployment: Deployment,
        config: Optional[IcpdaConfig] = None,
        seed: int = 0,
        *,
        readings_provider: ReadingsProvider,
        attack_plan=None,
        transport: str = "des",
    ) -> None:
        self.protocol = IcpdaProtocol(
            deployment,
            config if config is not None else IcpdaConfig(),
            seed=seed,
            attack_plan=attack_plan,
            transport=transport,
        )
        self._readings_provider = readings_provider
        self.epoch = 0
        #: Newest epoch whose round has finished (answered or failed).
        #: ``epoch`` runs one ahead of it while a round is in flight, and
        #: cache freshness counts back from here, not from ``epoch``.
        self.completed_epoch = 0
        self.stats = ServiceStats()
        self.history: List[EpochReport] = []
        self._cache: Dict[Tuple[Query, int], ServedAnswer] = {}

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Run Phase I (idempotent); the service is ready to serve."""
        self.protocol.setup()

    @property
    def excluded(self) -> Tuple[int, ...]:
        """Nodes currently barred from the aggregator role."""
        return self.protocol.config.excluded_heads

    def exclude(self, nodes: Iterable[int]) -> Tuple[int, ...]:
        """Operator override: bar ``nodes`` from the head role on the
        live protocol instance; returns the updated exclusion list."""
        count_before = len(self.excluded)
        self.protocol.exclude_heads(tuple(nodes))
        self.stats.exclusions += len(self.excluded) - count_before
        return self.excluded

    # -- cache -------------------------------------------------------------------

    def answer_from_cache(
        self, query, *, max_age_epochs: int = 1
    ) -> Optional[ServedAnswer]:
        """The freshest cached answer for ``query`` no older than
        ``max_age_epochs`` served epochs, or ``None``.

        ``max_age_epochs=1`` accepts only the most recently completed
        epoch — also while the next epoch's round is still running; ``0``
        never serves from cache. An answer is only ever returned for the
        epoch it was computed in — the key *is* ``(query, epoch)`` — so a
        cache hit can never smuggle epoch ``k``'s value into a caller
        that asked while epoch ``k+1`` was already served.
        """
        query = parse_query(query)
        newest = self.completed_epoch
        oldest = max(1, newest - max_age_epochs + 1)
        for epoch in range(newest, oldest - 1, -1):
            answer = self._cache.get((query, epoch))
            if answer is not None:
                self.stats.cache_hits += 1
                return answer
        return None

    def _prune_cache(self) -> None:
        floor = self.epoch - CACHE_EPOCHS
        if floor > 0:
            for key in [k for k in self._cache if k[1] <= floor]:
                del self._cache[key]

    # -- serving -----------------------------------------------------------------

    def serve_batch(self, queries: Iterable) -> Dict[Query, ServedAnswer]:
        """Serve every query in ``queries`` from one fresh protocol round.

        Advances the epoch, pulls that epoch's readings from the
        provider, runs Phases II–IV once with a composite aggregate
        covering every distinct kind, caches each answer under
        ``(query, epoch)``, and applies operator exclusion when the round
        is rejected with a named suspect. Deterministic: a fixed (deployment, config, seed,
        readings, batch-composition) sequence reproduces byte-identical
        epochs — see docs/SERVICE.md.
        """
        if self.protocol.tree is None:
            self.start()
        aggregate, batch_order, part_names = build_batch_aggregate(
            queries, self.protocol.config.fixed_point_scale
        )
        self.epoch += 1
        readings = self._readings_provider(self.epoch)
        self.protocol.set_aggregate(aggregate)
        try:
            result = self.protocol.run_round(readings, round_id=self.epoch)
        except Exception:
            # Quarantine the live kernel: the aborted phase's unfired
            # events must not detonate inside the next epoch's windows.
            # The epoch number stays consumed (it has no answers).
            self.stats.rounds_failed += 1
            self.protocol.sim.discard_pending()
            self.completed_epoch = self.epoch
            raise

        values: Dict[Query, Optional[float]] = dict.fromkeys(batch_order)
        if result.verdict is Verdict.ACCEPTED:
            decoded = aggregate.finalize_all(result.raw_totals)
            values = {q: decoded[part_names[q]] for q in batch_order}

        answers = {
            query: ServedAnswer(
                query=query,
                epoch=self.epoch,
                value=values[query],
                verdict=result.verdict,
                participation=result.participation,
            )
            for query in batch_order
        }
        self._cache.update(
            {(query, self.epoch): answer for query, answer in answers.items()}
        )
        # Only now, with its answers cached, may lookups start here.
        self.completed_epoch = self.epoch
        self._prune_cache()

        newly_excluded: Tuple[int, ...] = ()
        if result.detected_pollution:
            suspect = result.top_suspect()
            if suspect is not None and suspect not in self.excluded:
                self.exclude((suspect,))
                newly_excluded = (suspect,)

        self.stats.epochs_served += 1
        self.stats.queries_answered += len(answers)
        if result.detected_pollution:
            self.stats.rounds_rejected += 1
        self.history.append(
            EpochReport(
                epoch=self.epoch,
                queries=tuple(batch_order),
                result=result,
                answers=answers,
                newly_excluded=newly_excluded,
            )
        )
        return answers

    def collect(self, query) -> ServedAnswer:
        """Serve ``query`` epoch after epoch until one is accepted.

        The paper's operator response to pollution: a rejected epoch
        whose witnesses name a suspect bars it from the head role, and
        the next epoch re-clusters without it; an unattributed rejection
        simply re-clusters. Stops at the first
        accepted or ``INSUFFICIENT`` epoch (retrying cannot help a
        network too sparse to answer), or after
        :data:`COLLECT_MAX_ROUNDS` epochs, and returns the last answer.
        Every epoch it ran is in :attr:`history`; the exclusions it made
        are in :attr:`excluded`.
        """
        parsed = parse_query(query)
        for _ in range(COLLECT_MAX_ROUNDS):
            answer = self.serve_batch((parsed,))[parsed]
            if answer.accepted or answer.verdict is Verdict.INSUFFICIENT:
                break
        return answer

    # -- accounting --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Cross-epoch accounting snapshot (all values cumulative)."""
        protocol = self.protocol
        return {
            "epoch": self.epoch,
            "total_bytes": protocol.total_bytes(),
            "total_energy_j": protocol.stack.energy.report().total_j,
            "phase_bytes": dict(protocol.phase_bytes),
            "excluded": list(self.excluded),
            "epochs_served": self.stats.epochs_served,
            "queries_answered": self.stats.queries_answered,
            "cache_hits": self.stats.cache_hits,
            "rounds_rejected": self.stats.rounds_rejected,
        }
