"""The benchmark's workloads: what runs, on which inputs, and the checks.

Each workload builds every input from the run's seed (deployment,
readings, attacker placement, query arrival times) and hands the program
only those inputs. Each measures for a fixed wall-clock budget and
records raw samples in an :class:`Outcome`; :mod:`perfbench.metrics`
turns the samples into the reported numbers.

Correctness is checked on every operation:

* an accepted answer must lie between the values the statistic takes
  over the ``c`` smallest and the ``c`` largest per-sensor contributions,
  where ``c`` is the round's contributor count (the participation
  tolerance; exact, since the share field carries integers);
* an honest round must raise no tamper alarm;
* every protocol instance's per-phase byte ledger must add up to its
  byte counter;
* a localization must isolate exactly the planted attacker.

Every set-up and operation is timed in seconds and in yardsticks, units
of host speed sampled throughout the run (see :mod:`perfbench.speed`).

An honest round may still be rejected: when the channel loses a relayed
report, the census falls short and the drop watchdog names the relay,
exactly as for a malicious drop. That is the protocol working as
designed, so it lowers the accept ratio instead of failing the run.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import itertools
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.speed import Speedometer, main_thread_only
from repro.attacks.pollution import PollutionAttack, TamperStrategy
from repro.core import localization
from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.core.results import AlarmReason, RoundResult, Verdict
from repro.service.gateway import AggregationGateway
from repro.service.queries import build_batch_aggregate
from repro.service.service import AggregationService
from repro.topology.deploy import uniform_deployment

#: Every run measures at least this many operations, however long they take.
MIN_OPS = 3
#: Query kinds the service workload cycles through.
SERVE_MIX = ("avg", "sum", "var", "max", "min")
#: Open-loop arrival rate of the service workload.
SERVE_RATE_QPS = 40.0
#: Every n-th query accepts an answer one epoch old.
SERVE_CACHED_EVERY = 4
#: Gateway admission bound, high enough that admission never rejects.
SERVE_MAX_PENDING = 4096
#: Deterministic epochs served before the open loop starts (also the
#: traced-vs-untraced comparison point for the service workload).
SERVE_WARMUP = (("sum",), SERVE_MIX)
#: Fixed-point scale the default :class:`IcpdaConfig` encodes with.
SCALE = IcpdaConfig().fixed_point_scale


@dataclass(frozen=True)
class RoundSpec:
    """Closed loop of honest SUM rounds on one live protocol instance."""

    nodes: int
    field_m: float
    transport: str
    engine: str  # share and clustering/report engines: "scalar" | "batched"
    setups: int = 9
    #: The base station's census tolerance ``Th``; large event-simulated
    #: fields lose more than the default's worth of honest contributions.
    count_threshold: int = IcpdaConfig().count_threshold


@dataclass(frozen=True)
class ServeSpec:
    """Open-loop queries at a fixed rate through the asyncio gateway."""

    nodes: int
    field_m: float
    transport: str
    setups: int = 9


@dataclass(frozen=True)
class LocalizeSpec:
    """Closed loop of localization episodes, one planted polluter each."""

    nodes: int
    field_m: float
    transport: str


@dataclass
class Outcome:
    """Raw samples of one workload run.

    Timings are wall-clock seconds net of the speedometer's samples, or
    yardsticks where the name says so. ``rounds`` counts the protocol
    rounds the measured operations ran (service epochs, localization
    probes); the counters beside it are totals over those rounds.
    """

    #: Samples the host's speed for the whole run; see :mod:`perfbench.speed`.
    meter: Speedometer = field(default_factory=Speedometer)
    setup_s: List[float] = field(default_factory=list)
    setup_yardsticks: List[float] = field(default_factory=list)
    latency_s: List[float] = field(default_factory=list)
    latency_yardsticks: List[float] = field(default_factory=list)
    wait_s: List[float] = field(default_factory=list)
    lag_s: List[float] = field(default_factory=list)
    round_bytes: List[int] = field(default_factory=list)
    accuracy: List[float] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)
    attempted: int = 0
    accepted: int = 0  # operations answered with an accepted, correct result
    failed: int = 0  # operations whose output was wrong
    rounds: int = 0
    events_fired: int = 0
    frames: int = 0
    alarms: int = 0
    cache_eligible: int = 0
    cache_hits: int = 0
    heap_growth: int = 0
    errors: List[str] = field(default_factory=list)
    #: What the first operation produced; equal across traced/untraced runs.
    signature: Any = None
    first_op_s: float = 0.0

    def fail(self, message: str) -> None:
        """Count one failed operation."""
        self.failed += 1
        self.errors.append(message)

    def timed(self, start: float, end: float) -> float:
        """Record an operation that ran from ``start`` to ``end``; returns
        its latency in seconds."""
        seconds, yardsticks = self.meter.measure(start, end)
        self.latency_s.append(seconds)
        self.latency_yardsticks.append(yardsticks)
        return seconds

    def set_up(self, start: float, end: float) -> None:
        """Record a set-up that ran from ``start`` to ``end``."""
        seconds, yardsticks = self.meter.measure(start, end)
        self.setup_s.append(seconds)
        self.setup_yardsticks.append(yardsticks)


@dataclass(frozen=True)
class Workload:
    """A workload; BENCHMARK.json says why it is there."""

    name: str
    run: Callable[..., Outcome]
    spec: Any
    tiny: Any  # seconds-long variant for the test suite


# -- inputs -------------------------------------------------------------------


def _rng(seed: int, *salt) -> np.random.Generator:
    """An input stream derived from the run seed and a purpose label."""
    words = [seed] + [
        part if isinstance(part, int) else int.from_bytes(part.encode(), "little")
        for part in salt
    ]
    return np.random.default_rng(words)


def _readings(rng: np.random.Generator, nodes: int) -> Dict[int, float]:
    """Positive readings in [10, 30) for sensors 1..nodes-1."""
    return dict(zip(range(1, nodes), rng.uniform(10.0, 30.0, nodes - 1).tolist()))


def _deployment(spec, rng: np.random.Generator):
    return uniform_deployment(spec.nodes, field_size=spec.field_m, rng=rng)


def _spanner(tracer):
    if tracer is None:
        return lambda *args, **kwargs: nullcontext()
    return tracer.span


def _live_objects() -> int:
    gc.collect()
    return len(gc.get_objects())


# -- checks -------------------------------------------------------------------


def answer_bounds(
    kind: str, readings: Sequence[float], contributors: int
) -> Tuple[float, float]:
    """The range an honest answer over ``contributors`` of ``readings``
    can take.

    Each additive component's network total lies between the sum of its
    ``contributors`` smallest and ``contributors`` largest per-sensor
    values; every served statistic is monotone in each component, so its
    extremes sit on the corners of that box.
    """
    aggregate, _, _ = build_batch_aggregate([kind], SCALE)
    part = aggregate.parts[0]
    columns = zip(*(part.components(value) for value in readings))
    box = []
    for column in columns:
        ordered = sorted(column)
        box.append((sum(ordered[:contributors]), sum(ordered[len(ordered) - contributors:])))
    corners = [part.finalize(corner) for corner in itertools.product(*box)]
    return min(corners), max(corners)


def _within(value: Optional[float], bounds: Tuple[float, float]) -> bool:
    low, high = bounds
    slack = 1e-9 * max(abs(low), abs(high), 1.0)
    return value is not None and low - slack <= value <= high + slack


def _tamper_error(result: RoundResult) -> Optional[str]:
    """Tamper alarms in an honest round, which no channel loss can cause."""
    tampered = sorted(
        {alarm.reason.value for alarm in result.alarms if alarm.reason is not AlarmReason.DROPPED}
    )
    return f"honest round raised tamper alarms {tampered}" if tampered else None


def _round_error(result: RoundResult, readings: Dict[int, float]) -> Optional[str]:
    """Why an honest SUM round's output is wrong, or None."""
    error = _tamper_error(result)
    if error is None and result.verdict is Verdict.ACCEPTED:
        bounds = answer_bounds("sum", list(readings.values()), result.contributors)
        if not _within(result.value, bounds):
            error = f"sum {result.value} outside {bounds} for {result.contributors} contributors"
    return error


def _ledger_error(phase_bytes: Dict[str, int], total_bytes: int) -> Optional[str]:
    if sum(phase_bytes.values()) != total_bytes:
        return f"sum(phase_bytes)={sum(phase_bytes.values())} != total_bytes={total_bytes}"
    return None


def _metered(body: Callable[..., None]) -> Callable[..., Outcome]:
    """``body(out, ...)`` as a workload's run function: it fills a fresh
    :class:`Outcome` while the outcome's speedometer runs."""

    @functools.wraps(body)
    def run(
        name: str,
        spec: Any,
        seed: int,
        seconds: float,
        tracer=None,
        min_ops: int = MIN_OPS,
    ) -> Outcome:
        out = Outcome()
        with out.meter:
            body(out, name, spec, seed, seconds, tracer, min_ops)
        return out

    return run


# -- rounds -------------------------------------------------------------------


@_metered
def run_rounds(
    out: Outcome,
    name: str,
    spec: RoundSpec,
    seed: int,
    seconds: float,
    tracer,
    min_ops: int,
) -> None:
    """Set up ``spec.setups`` times, then run honest SUM rounds on the
    last instance until ``seconds`` have passed."""
    span = _spanner(tracer)
    config = IcpdaConfig(
        share_backend=spec.engine,
        clustering_backend=spec.engine,
        count_threshold=spec.count_threshold,
    )
    for index in range(spec.setups):
        protocol = None  # free the previous instance before the fence
        gc.collect()
        start = perf_counter()
        with span("setup", "setup.other", f"{name}/setup/{index}"):
            deployment = _deployment(spec, _rng(seed, "deployment"))
            protocol = IcpdaProtocol(
                deployment, config, seed=seed, transport=spec.transport
            )
            protocol.setup()
        out.set_up(start, perf_counter())

    readings_rng = _rng(seed, "readings")
    kernel, counters = protocol.sim.stats, protocol.stack.counters
    heap_before = _live_objects() if tracer is not None else 0
    gc.collect()
    fired_before, frames_before = kernel.fired, counters.total_messages
    window = perf_counter()
    while out.attempted < min_ops or perf_counter() - window < seconds:
        due = perf_counter()
        index = out.attempted
        readings = _readings(readings_rng, spec.nodes)
        bytes_before, fired_round = protocol.total_bytes(), kernel.fired
        start = perf_counter()
        with span("round", "round.other", f"{name}/round/{index}"):
            result = protocol.run_round(readings, round_id=index + 1)
        latency = out.timed(start, perf_counter())
        out.attempted += 1
        out.rounds += 1
        out.wait_s.append(start - due)
        out.lag_s.append(start - due)
        out.round_bytes.append(protocol.total_bytes() - bytes_before)
        out.alarms += len(result.alarms)
        if index == 0:
            out.first_op_s = latency
            out.signature = (
                result.verdict.value,
                result.value,
                result.contributors,
                out.round_bytes[0],
                kernel.fired - fired_round,
            )
        error = _round_error(result, readings)
        if error is not None:
            out.fail(f"round {index}: {error}")
        elif result.verdict is Verdict.ACCEPTED:
            out.accepted += 1
            out.accuracy.append(result.value / sum(readings.values()))
    out.events_fired = kernel.fired - fired_before
    out.frames = counters.total_messages - frames_before
    error = _ledger_error(protocol.phase_bytes, protocol.total_bytes())
    if error is not None:
        out.errors.append(error)
    if tracer is not None:
        out.heap_growth = _live_objects() - heap_before


# -- service ------------------------------------------------------------------


def _epoch_readings(seed: int, nodes: int, epoch: int) -> Dict[int, float]:
    return _readings(_rng(seed, "epoch", epoch), nodes)


class _EpochLog:
    """The service's readings provider; notes when each epoch starts and
    the byte counter at that instant."""

    def __init__(self, seed: int, nodes: int) -> None:
        self.seed = seed
        self.nodes = nodes
        self.service: Optional[AggregationService] = None
        self.started: Dict[int, float] = {}
        self.bytes_at: Dict[int, int] = {}

    def __call__(self, epoch: int) -> Dict[int, float]:
        self.started[epoch] = perf_counter()
        self.bytes_at[epoch] = self.service.protocol.total_bytes()
        return _epoch_readings(self.seed, self.nodes, epoch)


@dataclass
class _QueryRecord:
    kind: str
    max_age: int
    due: float = 0.0
    submitted: float = 0.0
    done: float = 0.0
    answer: Any = None
    error: str = ""


async def open_loop(
    rate_qps: float, count: int, send: Callable[[int, float], Awaitable[None]]
) -> None:
    """Start ``send(index, due)`` for request ``index`` at its due time,
    ``start + index / rate_qps``, whatever became of earlier requests;
    then wait for all of them.

    When something stalls the event loop, later requests start late:
    ``send`` should count their latency from ``due``, not from when it
    ran, and the gap between the two is how late the generator ran.
    """
    loop = asyncio.get_running_loop()
    tasks = []
    start = perf_counter()
    for index in range(count):
        due = start + index / rate_qps
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(send(index, due)))
    await asyncio.gather(*tasks)


@_metered
def run_serve(
    out: Outcome,
    name: str,
    spec: ServeSpec,
    seed: int,
    seconds: float,
    tracer,
    min_ops: int,
) -> None:
    """Set up the service and gateway ``spec.setups`` times, serve the
    warm-up epochs, then submit queries open loop for ``seconds``."""
    del name  # no coarse spans here: they cannot cross an await, so the
    # tracer wraps serve_batch instead, on the round worker's thread
    asyncio.run(_serve(spec, seed, seconds, tracer, min_ops, out))


async def _serve(spec, seed, seconds, tracer, min_ops, out: Outcome) -> None:
    loop = asyncio.get_running_loop()
    # Load stays on two threads: this loop and one round worker, which
    # leaves the speedometer's signal to this one.
    loop.set_default_executor(
        ThreadPoolExecutor(max_workers=1, initializer=main_thread_only)
    )
    gateway = None
    for _ in range(spec.setups):
        if gateway is not None:
            await gateway.stop()
        # Free the previous instance before the fence, not inside the timing.
        log = service = gateway = None
        gc.collect()
        start = perf_counter()
        log = _EpochLog(seed, spec.nodes)
        service = AggregationService(
            _deployment(spec, _rng(seed, "deployment")),
            IcpdaConfig(),
            seed=seed,
            readings_provider=log,
            transport=spec.transport,
        )
        log.service = service
        gateway = AggregationGateway(service, max_pending=SERVE_MAX_PENDING)
        await gateway.start()
        out.set_up(start, perf_counter())

    protocol = service.protocol
    start = perf_counter()
    signature: List[Any] = []
    for batch in SERVE_WARMUP:
        answers = await loop.run_in_executor(None, service.serve_batch, batch)
        signature.append(
            tuple((query.kind, a.verdict.value, a.value) for query, a in answers.items())
        )
    out.first_op_s = perf_counter() - start
    out.signature = (*signature, protocol.total_bytes(), protocol.sim.stats.fired)

    heap_before = _live_objects() if tracer is not None else 0
    first_epoch = service.epoch + 1
    kernel, counters = protocol.sim.stats, protocol.stack.counters
    fired_before, frames_before = kernel.fired, counters.total_messages
    hits_before = gateway.stats.cache_hits
    records = [
        _QueryRecord(
            kind=SERVE_MIX[index % len(SERVE_MIX)],
            max_age=int(index % SERVE_CACHED_EVERY == SERVE_CACHED_EVERY - 1),
        )
        for index in range(max(min_ops, round(SERVE_RATE_QPS * seconds)))
    ]

    async def ask(index: int, due: float) -> None:
        record = records[index]
        record.due, record.submitted = due, perf_counter()
        try:
            record.answer = await gateway.query(
                record.kind, max_age_epochs=record.max_age
            )
        except Exception as error:  # noqa: BLE001 - a failed query is a result
            record.error = f"{type(error).__name__}: {error}"
        record.done = perf_counter()

    await open_loop(SERVE_RATE_QPS, len(records), ask)
    await gateway.stop()

    last_epoch = service.epoch
    out.rounds = last_epoch - first_epoch + 1
    out.events_fired = kernel.fired - fired_before
    out.frames = counters.total_messages - frames_before
    out.cache_hits = gateway.stats.cache_hits - hits_before
    log.bytes_at[last_epoch + 1] = protocol.total_bytes()
    results = {report.epoch: report.result for report in service.history}
    for epoch in range(first_epoch, last_epoch + 1):
        out.round_bytes.append(log.bytes_at[epoch + 1] - log.bytes_at[epoch])
        out.alarms += len(results[epoch].alarms)
        error = _tamper_error(results[epoch])
        if error is not None:
            out.errors.append(f"epoch {epoch}: {error}")
    _check_answers(seed, spec, records, results, log, out)
    error = _ledger_error(protocol.phase_bytes, protocol.total_bytes())
    if error is not None:
        out.errors.append(error)
    if tracer is not None:
        out.heap_growth = _live_objects() - heap_before


def _check_answers(seed, spec, records, results, log: _EpochLog, out: Outcome) -> None:
    """Per-query latency, wait and correctness of the open-loop window."""
    bounds_cache: Dict[Tuple[int, str], Tuple[float, float]] = {}
    readings_cache: Dict[int, Dict[int, float]] = {}
    sums: Dict[int, float] = {}
    batches: Dict[int, int] = {}
    for index, record in enumerate(records):
        out.attempted += 1
        out.timed(record.due, record.done)
        out.lag_s.append(record.submitted - record.due)
        out.cache_eligible += record.max_age > 0
        answer = record.answer
        if answer is None:
            out.fail(f"query {index} ({record.kind}): {record.error}")
            continue
        started = log.started[answer.epoch]
        if started >= record.submitted:  # answered by a round it waited for
            out.wait_s.append(started - record.due)
            batches[answer.epoch] = batches.get(answer.epoch, 0) + 1
        if not answer.accepted:
            continue
        key = (answer.epoch, record.kind)
        if answer.epoch not in readings_cache:
            readings_cache[answer.epoch] = _epoch_readings(seed, spec.nodes, answer.epoch)
        readings = readings_cache[answer.epoch]
        if key not in bounds_cache:
            bounds_cache[key] = answer_bounds(
                record.kind, list(readings.values()), results[answer.epoch].contributors
            )
        if not _within(answer.value, bounds_cache[key]):
            out.fail(
                f"query {index} ({record.kind}) epoch {answer.epoch}: "
                f"{answer.value} outside {bounds_cache[key]}"
            )
            continue
        out.accepted += 1
        if record.kind == "sum" and answer.epoch not in sums:
            sums[answer.epoch] = answer.value / sum(readings.values())
    out.accuracy.extend(sums.values())
    out.batch_sizes.extend(batches.values())


# -- localization -------------------------------------------------------------


@_metered
def run_localize(
    out: Outcome,
    name: str,
    spec: LocalizeSpec,
    seed: int,
    seconds: float,
    tracer,
    min_ops: int,
) -> None:
    """Episodes until ``seconds`` have passed: deploy, place a
    ``NAIVE_TOTAL`` polluter on a head of an honest dry run (the set-up),
    then binary-search it among a power-of-two sample of the heads with
    restricted probe rounds (the operation)."""
    span = _spanner(tracer)
    config = IcpdaConfig()
    heap_before = _live_objects() if tracer is not None else 0
    window = perf_counter()
    while out.attempted < min_ops or perf_counter() - window < seconds:
        episode = out.attempted
        rng = _rng(seed, "episode", episode)
        protocol_seed = int(rng.integers(2**31))
        dry = None  # free the previous episode before the fence
        gc.collect()
        start = perf_counter()
        with span("setup", "setup.other", f"{name}/setup/{episode}"):
            deployment = _deployment(spec, rng)
            readings = _readings(rng, spec.nodes)
            dry = IcpdaProtocol(
                deployment, config, seed=protocol_seed, transport=spec.transport
            )
            dry.setup()
            clean = dry.run_round(readings, round_id=0)
        out.set_up(start, perf_counter())
        out.attempted += 1
        label = f"episode {episode}"
        error = _round_error(clean, readings) or _ledger_error(
            dry.phase_bytes, dry.total_bytes()
        )
        heads = sorted(
            head
            for head in dry.last_exchange.completed_clusters
            if head != deployment.base_station
        )
        if error is None and not heads:
            error = "dry run completed no cluster to attack"
        if error is not None:
            out.fail(f"{label}: {error}")
            continue
        if clean.verdict is Verdict.ACCEPTED:
            out.accuracy.append(clean.value / sum(readings.values()))
        attacker = int(rng.choice(heads))
        # Search a power-of-two sample of the heads, attacker included:
        # every episode then takes exactly log2 probes, where the full
        # head list would flip episodes between two probe counts.
        others = [head for head in heads if head != attacker]
        size = 1 << (len(heads).bit_length() - 1)
        candidates = sorted(
            [attacker] + [int(h) for h in rng.choice(others, size - 1, replace=False)]
        )
        probes: List[Tuple[bool, int]] = []

        def probe(subset: Tuple[int, ...]) -> bool:
            with span("round", "round.other"):
                instance = IcpdaProtocol(
                    deployment,
                    config.with_restriction(subset),
                    seed=protocol_seed,
                    attack_plan=PollutionAttack(
                        {attacker}, strategy=TamperStrategy.NAIVE_TOTAL
                    ),
                    transport=spec.transport,
                )
                instance.setup()
                result = instance.run_round(readings, round_id=0)
            total = instance.total_bytes()
            ledger = _ledger_error(instance.phase_bytes, total)
            if ledger is not None:
                out.errors.append(f"{label} probe {len(probes)}: {ledger}")
            out.rounds += 1
            out.round_bytes.append(total)
            out.events_fired += instance.sim.stats.fired
            out.frames += instance.stack.counters.total_messages
            out.alarms += len(result.alarms)
            probes.append((result.detected_pollution, total))
            return result.detected_pollution

        start = perf_counter()
        search = localization.localize_polluter(probe, candidates)
        latency = out.timed(start, perf_counter())
        if episode == 0:
            out.first_op_s = latency
            out.signature = (attacker, search.suspects, search.probes_used, tuple(probes))
        if search.converged and search.suspects == (attacker,):
            out.accepted += 1
        else:
            out.fail(f"{label}: isolated {search.suspects}, planted {attacker}")
    if tracer is not None:
        out.heap_growth = _live_objects() - heap_before


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "round-2k-bulk",
            run_rounds,
            # N=2000 fits a dozen rounds into a run, enough for a steady
            # median; at N=5000 a run holds five.
            RoundSpec(2000, 949.0, "fluid-bulk", "batched"),
            RoundSpec(150, 260.0, "fluid-bulk", "batched", setups=2),
        ),
        Workload(
            "round-1k-des",
            run_rounds,
            # Degree ~12: at ~17 the CSMA MAC drops the odd relayed
            # report, the watchdog blames the honest relay and the round
            # is rejected (see perfbench/README.md, findings).
            RoundSpec(1000, 800.0, "des", "scalar", count_threshold=25),
            RoundSpec(120, 250.0, "des", "scalar", setups=2),
        ),
        Workload(
            "serve-1k-fluid",
            run_serve,
            ServeSpec(1000, 700.0, "fluid"),
            ServeSpec(120, 250.0, "fluid", setups=2),
        ),
        Workload(
            "localize-1k-fluid",
            run_localize,
            LocalizeSpec(1000, 672.0, "fluid"),
            LocalizeSpec(150, 260.0, "fluid"),
        ),
    )
}
