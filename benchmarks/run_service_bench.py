"""Aggregation-service benchmark runner.

Measures the long-lived service mode (`repro.service`) the way a client
sees it: an asyncio :class:`~repro.service.gateway.AggregationGateway`
over one live protocol instance, driven by many concurrent clients
submitting SUM/AVG/VAR/MIN/MAX queries. Writes ``BENCH_service.json``
at the repo root (the perf trajectory reader looks there), with a copy
under ``benchmarks/results/``.

Reported per scenario:

* ``best_yardsticks`` — the whole serving run (gateway start, every
  client's full query stream, drain) in yardsticks, units of host speed
  sampled while it ran, best of ``--repeats`` passes, each on a
  **fresh** service (the protocol instance is long-lived *within* a
  pass; timing must not leak state across passes). ``check_bench.py``
  gates this column;
* ``best_seconds`` — the same pass's wall-clock;
* ``qps`` — served queries / best wall-clock;
* ``p50_s / p95_s / p99_s`` — admission->answer latency percentiles
  over every served query of the best pass (the gateway's own record);
* ``epochs`` / ``batches`` / ``cache_hits`` / ``rejected`` — how the
  serving actually decomposed (epochs ≥ 2 is asserted: a service run
  that collapses into one round isn't measuring the service);
* ``peak_rss_mb`` — the scenario's high-water RSS: each scenario runs in
  a spawned subprocess of its own, as in ``run_e2e_bench.py``.

Latency here is dominated by the simulated protocol round each batch
runs, so the numbers measure batching efficiency (how many concurrent
queries share one round), not network I/O.

Run from the repo root::

    PYTHONPATH=src python benchmarks/run_service_bench.py              # full
    PYTHONPATH=src python benchmarks/run_service_bench.py --scale quick
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np
from isolated import best_pass, peak_rss_mb, run_isolated

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_service.json"
RESULTS_COPY = REPO_ROOT / "benchmarks" / "results" / "BENCH_service.json"

#: Query mix cycled through by every client (all mutually batchable).
QUERY_MIX = ("avg", "sum", "var", "max", "min")


@dataclass(frozen=True)
class ServiceScenario:
    """One timed serving run.

    ``clients`` concurrent client tasks each submit ``queries`` queries
    back-to-back (await answer, submit next). ``cached_every`` makes
    every n-th query tolerate a one-epoch-old answer (exercises the
    ``(query, epoch)`` cache); 0 disables. ``max_pending`` is the
    gateway admission bound — scenarios where clients ≤ max_pending
    never reject.
    """

    num_nodes: int
    field_size: float
    seed: int
    clients: int
    queries: int
    max_pending: int = 64
    cached_every: int = 4
    transport: str = "des"
    repeats: Optional[int] = None


def _scenarios(scale: str) -> Dict[str, ServiceScenario]:
    if scale == "quick":
        return {
            "service_small": ServiceScenario(
                num_nodes=120, field_size=250.0, seed=21, clients=8, queries=4
            ),
            "service_small_cached": ServiceScenario(
                num_nodes=120, field_size=250.0, seed=21, clients=8, queries=4,
                cached_every=2,
            ),
        }
    return {
        "service_small": ServiceScenario(
            num_nodes=120, field_size=250.0, seed=21, clients=8, queries=4
        ),
        "service_small_cached": ServiceScenario(
            num_nodes=120, field_size=250.0, seed=21, clients=8, queries=4,
            cached_every=2,
        ),
        "service_medium": ServiceScenario(
            num_nodes=250, field_size=360.0, seed=22, clients=16, queries=6
        ),
        "service_medium_fluid": ServiceScenario(
            num_nodes=250, field_size=360.0, seed=22, clients=16, queries=6,
            transport="fluid",
        ),
        "service_large_fluid": ServiceScenario(
            num_nodes=1000, field_size=700.0, seed=23, clients=32, queries=4,
            transport="fluid", repeats=1,
        ),
    }


def _build_service(scenario: ServiceScenario):
    from repro.core.config import IcpdaConfig
    from repro.service.service import AggregationService
    from repro.topology.deploy import uniform_deployment

    deployment = uniform_deployment(
        scenario.num_nodes,
        field_size=scenario.field_size,
        rng=np.random.default_rng(scenario.seed),
    )

    def readings_provider(epoch: int) -> Dict[int, float]:
        rng = np.random.default_rng(scenario.seed * 100_003 + epoch)
        return {
            i: float(20.0 + rng.normal(0.0, 2.0))
            for i in range(1, scenario.num_nodes)
        }

    return AggregationService(
        deployment,
        IcpdaConfig(),
        seed=scenario.seed,
        readings_provider=readings_provider,
        transport=scenario.transport,
    )


async def _drive(scenario: ServiceScenario, gateway) -> dict:
    """Run every client's query stream; returns serving counters."""
    from perfbench.speed import main_thread_only
    from repro.service.gateway import QueryRejected

    # Rounds run on one worker thread that blocks SIGALRM, so the
    # speedometer's samples interrupt this loop's thread, as in perfbench.
    asyncio.get_running_loop().set_default_executor(
        ThreadPoolExecutor(max_workers=1, initializer=main_thread_only)
    )
    rejected = [0]

    async def client(index: int) -> None:
        for step in range(scenario.queries):
            kind = QUERY_MIX[(index + step) % len(QUERY_MIX)]
            allow_cached = (
                scenario.cached_every > 0
                and step % scenario.cached_every == scenario.cached_every - 1
            )
            try:
                await gateway.query(
                    kind, max_age_epochs=1 if allow_cached else 0
                )
            except QueryRejected:
                rejected[0] += 1

    await gateway.start()
    await asyncio.gather(*(client(i) for i in range(scenario.clients)))
    await gateway.stop()
    return {"rejected": rejected[0]}


def _serve_pass(name: str, scenario: ServiceScenario):
    """One serving run on a fresh service; returns (start, end, stats)."""
    from repro.service.gateway import AggregationGateway

    service = _build_service(scenario)
    gateway = AggregationGateway(service, max_pending=scenario.max_pending)
    start = time.perf_counter()
    extra = asyncio.run(_drive(scenario, gateway))
    end = time.perf_counter()
    assert service.epoch >= 2, (
        f"{name}: served {service.epoch} epoch(s); a service benchmark "
        "must cover at least two epochs on the live instance"
    )
    percentiles = gateway.stats.latency_percentiles()
    return start, end, {
        "served": gateway.stats.served,
        "epochs": service.epoch,
        "batches": gateway.stats.batches,
        "largest_batch": gateway.stats.largest_batch,
        "cache_hits": gateway.stats.cache_hits,
        "rejected": gateway.stats.rejected + extra["rejected"],
        "p50_s": round(percentiles["p50"], 6),
        "p95_s": round(percentiles["p95"], 6),
        "p99_s": round(percentiles["p99"], 6),
        "total_bytes": service.snapshot()["total_bytes"],
    }


def _measure(name: str, scenario: ServiceScenario, repeats: int) -> dict:
    """Time one serving run best-of-``repeats``; returns its entry."""
    if scenario.repeats is not None:
        repeats = scenario.repeats
    best, yardsticks, best_stats = best_pass(
        repeats, lambda: _serve_pass(name, scenario)
    )
    return {
        "num_nodes": scenario.num_nodes,
        "field_size_m": scenario.field_size,
        "seed": scenario.seed,
        "transport": scenario.transport,
        "clients": scenario.clients,
        "queries_per_client": scenario.queries,
        "max_pending": scenario.max_pending,
        "repeats": max(1, repeats),
        "best_seconds": round(best, 6),
        "best_yardsticks": round(yardsticks, 1),
        "qps": round(best_stats["served"] / best, 2),
        "peak_rss_mb": peak_rss_mb(),
        **best_stats,
    }


def run_scenario(name: str, scenario: ServiceScenario, repeats: int) -> dict:
    """Measure one serving run in a spawned subprocess of its own."""
    entry = run_isolated(name, _measure, name, scenario, repeats)
    print(
        f"{name:24s} N={scenario.num_nodes:<5d} clients={scenario.clients:<3d} "
        f"best={entry['best_seconds']:7.3f}s {entry['best_yardsticks']:8.1f}y "
        f"qps={entry['qps']:>7.1f} "
        f"p50={entry['p50_s']*1000:6.1f}ms p99={entry['p99_s']*1000:6.1f}ms "
        f"epochs={entry['epochs']}"
    )
    return entry


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        choices=("full", "quick"),
        default="full",
        help="full: up to N=1000 fluid serving; quick: tiny CI smoke",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="serving passes per scenario; best pass is reported (default 3)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        help=f"where to write the JSON report (default {OUTPUT})",
    )
    parser.add_argument(
        "--no-copy",
        action="store_true",
        help=f"skip the secondary copy under {RESULTS_COPY.parent}/",
    )
    args = parser.parse_args(argv)

    scenarios = _scenarios(args.scale)
    report = {
        "schema": "bench-service/1",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scale": args.scale,
        "scenarios": {
            name: run_scenario(name, scenario, args.repeats)
            for name, scenario in scenarios.items()
        },
    }

    output = args.output if args.output is not None else OUTPUT
    output.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(report, indent=2) + "\n"
    output.write_text(payload)
    print(f"\nwrote {output}")
    if not args.no_copy and args.output is None:
        RESULTS_COPY.parent.mkdir(parents=True, exist_ok=True)
        RESULTS_COPY.write_text(payload)
        print(f"wrote {RESULTS_COPY}")


if __name__ == "__main__":
    main()
