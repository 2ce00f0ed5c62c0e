"""End-to-end protocol benchmark runner.

Times representative full protocol rounds — TAG baseline and iCPDA, each
over sparse and dense deployments at small and large network sizes — and
writes the numbers to ``BENCH_e2e.json`` at the repo root (the perf
trajectory reader looks there), with a copy under ``benchmarks/results/``.

Every scenario is a complete protocol execution: deployment,
Simulator, NetworkStack, tree flood, clustering, share exchange,
integrity phase, and aggregation, exactly as the experiment suite
drives them. The dense/large scenarios are the regime the medium's
hot path dominates — every broadcast fans out to ~15-20 promiscuous
receivers.

Run from the repo root::

    PYTHONPATH=src python benchmarks/run_e2e_bench.py              # full scale
    PYTHONPATH=src python benchmarks/run_e2e_bench.py --scale quick
    PYTHONPATH=src python benchmarks/run_e2e_bench.py --only icpda_huge_fluid_bulk

``--only NAME...`` times just the named scenarios and merges their rows
into the existing report (other rows are kept as they are), so a
before/after pair does not need the whole suite.

Each scenario is measured as the best of ``--repeats`` passes
(deployment generation excluded; everything from Simulator construction
onward included), in yardsticks: ``best_yardsticks`` is the pass's
duration in units of host speed sampled while it ran, and
``best_seconds`` the same pass's wall-clock (see ``isolated.py``). The
quick gate in ``check_bench.py`` compares yardsticks, which hold still
when a shared host slows; seconds do not. Seeded identically every
pass, so the work per pass is byte-identical and best-of suppresses
scheduler noise only. A full ``gc.collect()`` runs between passes:
long-lived garbage from earlier work otherwise inflates later passes
(measured ~8% drift across three identical 20k rounds in one process —
the source of a phantom "batched regression" in an earlier report; see
docs/PERF.md).

Each scenario runs in its own spawned subprocess, so ``peak_rss_mb`` is
that scenario's own high-water RSS and no heap or gc drift carries over
from the scenario before it.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np
from isolated import best_pass, peak_rss_mb, run_isolated

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_e2e.json"
RESULTS_COPY = REPO_ROOT / "benchmarks" / "results" / "BENCH_e2e.json"

#: Unit-disk radio range shared by every scenario (the paper's MICA motes).
RANGE_M = 50.0


@dataclass(frozen=True)
class Scenario:
    """One timed end-to-end scenario.

    ``field_size`` is chosen per node count to pin the *mean degree*
    (how many radios overhear each frame): sparse ~8, dense ~16-20.
    ``transport`` selects the network backend — ``"des"``, ``"fluid"``
    or ``"fluid-bulk"`` (see ``docs/TRANSPORT.md``); scenarios
    differing only in it form a backend comparison pair. ``engine``
    selects the Phase II-IV engines (``"scalar"`` or ``"batched"``, see
    ``docs/PERF.md``); scenarios differing only in it form a
    scalar-vs-batched pair.
    ``repeats`` overrides the global ``--repeats`` for scenarios too
    expensive to time more than once (the N=20000 rounds).
    """

    protocol: str  # "tag" | "icpda" | "storm"
    num_nodes: int
    field_size: float
    seed: int
    transport: str = "des"
    engine: str = "scalar"
    repeats: Optional[int] = None


def _scenarios(scale: str) -> Dict[str, Scenario]:
    if scale == "quick":
        return {
            "tag_sparse_small": Scenario("tag", 80, 280.0, 11),
            "icpda_sparse_small": Scenario("icpda", 80, 280.0, 11),
            "tag_dense_small": Scenario("tag", 120, 250.0, 12),
            "icpda_dense_small": Scenario("icpda", 120, 250.0, 12),
            "icpda_dense_small_fluid": Scenario("icpda", 120, 250.0, 12, "fluid"),
            # Batched pair for the same cell: the gate baseline watches
            # this row so the batched engines can't silently regress at
            # CI scale.
            "icpda_dense_small_batched": Scenario(
                "icpda", 120, 250.0, 12, engine="batched"
            ),
            "storm_dense_small": Scenario("storm", 120, 150.0, 14),
            "storm_dense_small_fluid": Scenario("storm", 120, 150.0, 14, "fluid"),
            # The paper-scale 20k round, once: proves the grid neighbor
            # engine + batched phase engines keep huge fields tractable
            # in CI (O(N^2) anywhere and this times out instead).
            "icpda_huge_fluid": Scenario(
                "icpda", 20000, 3000.0, 15, "fluid",
                engine="batched", repeats=1,
            ),
            # Same round through the bulk (tick-grid, vectorized) fluid
            # path with the batched phase engines: the fully vectorized
            # stack the 100k row depends on.
            "icpda_huge_fluid_bulk": Scenario(
                "icpda", 20000, 3000.0, 15, "fluid-bulk",
                engine="batched", repeats=1,
            ),
            # The 100k-node round only the bulk path makes tractable:
            # same density (degree ~17), one full iCPDA round.
            "icpda_mega_fluid_bulk": Scenario(
                "icpda", 100000, 6708.0, 16, "fluid-bulk",
                engine="batched", repeats=1,
            ),
        }
    return {
        "tag_sparse_small": Scenario("tag", 300, 540.0, 11),
        "icpda_sparse_small": Scenario("icpda", 300, 540.0, 11),
        "tag_dense_small": Scenario("tag", 400, 400.0, 12),
        "icpda_dense_small": Scenario("icpda", 400, 400.0, 12),
        "tag_dense_large": Scenario("tag", 2000, 950.0, 13),
        "icpda_dense_large": Scenario("icpda", 2000, 950.0, 13),
        "icpda_dense_large_batched": Scenario(
            "icpda", 2000, 950.0, 13, engine="batched"
        ),
        "icpda_dense_large_fluid": Scenario("icpda", 2000, 950.0, 13, "fluid"),
        "icpda_huge_fluid": Scenario(
            "icpda", 20000, 3000.0, 15, "fluid", repeats=1
        ),
        # The fully vectorized 20k row (bulk transport + batched
        # engines), plus the 100k round that exists only because of
        # that stack.
        "icpda_huge_fluid_bulk": Scenario(
            "icpda", 20000, 3000.0, 15, "fluid-bulk",
            engine="batched", repeats=1,
        ),
        "icpda_mega_fluid_bulk": Scenario(
            "icpda", 100000, 6708.0, 16, "fluid-bulk",
            engine="batched", repeats=1,
        ),
        "storm_dense_large": Scenario("storm", 2000, 250.0, 14),
        "storm_dense_large_fluid": Scenario("storm", 2000, 250.0, 14, "fluid"),
        "storm_dense_large_fluid_bulk": Scenario(
            "storm", 2000, 250.0, 14, "fluid-bulk"
        ),
    }


def _build_deployment(scenario: Scenario):
    from repro.topology.deploy import uniform_deployment

    rng = np.random.default_rng(scenario.seed)
    return uniform_deployment(
        scenario.num_nodes,
        field_size=scenario.field_size,
        radio_range=RANGE_M,
        rng=rng,
    )


def _mean_degree(deployment) -> float:
    degrees = deployment.links.degrees()
    return int(degrees.sum()) / max(1, len(degrees))


def _run_icpda(scenario: Scenario, deployment) -> Tuple[float, float, dict]:
    """One full iCPDA round; returns (start, end, channel/kernel stats)."""
    from repro.core.config import IcpdaConfig
    from repro.core.protocol import IcpdaProtocol
    from repro.experiments.common import make_readings

    readings = make_readings(
        scenario.num_nodes, rng=np.random.default_rng(scenario.seed + 10_000)
    )
    start = time.perf_counter()
    protocol = IcpdaProtocol(
        deployment,
        IcpdaConfig(engine=scenario.engine),
        seed=scenario.seed,
        transport=scenario.transport,
    )
    protocol.setup()
    result = protocol.run_round(readings)
    end = time.perf_counter()
    assert result.clusters_completed > 0, "degenerate scenario: no clusters"
    stats = dict(protocol.stack.medium.stats.snapshot())
    stats["events_fired"] = protocol.sim.stats.fired
    snap = protocol.profiler.snapshot()
    stats["phase_seconds"] = {
        name: round(snap.get(f"{name}.wall_s", 0.0), 6)
        for name in ("tree", "clustering", "exchange", "report")
    }
    return start, end, stats


def _run_tag(scenario: Scenario, deployment) -> Tuple[float, float, dict]:
    """One full TAG epoch; returns (start, end, channel/kernel stats)."""
    from repro.aggregation.functions import make_aggregate
    from repro.aggregation.tag import TagProtocol
    from repro.aggregation.tree import build_aggregation_tree
    from repro.experiments.common import make_readings
    from repro.net.transport import create_transport
    from repro.sim.kernel import Simulator

    readings = make_readings(
        scenario.num_nodes, rng=np.random.default_rng(scenario.seed + 10_000)
    )
    start = time.perf_counter()
    sim = Simulator(seed=scenario.seed)
    stack = create_transport(scenario.transport, sim, deployment)
    tree = build_aggregation_tree(stack)
    protocol = TagProtocol(stack, tree, make_aggregate("sum"))
    result = protocol.run(readings)
    end = time.perf_counter()
    assert result.contributors > 0, "degenerate scenario: nobody participated"
    stats = dict(stack.medium.stats.snapshot())
    stats["events_fired"] = sim.stats.fired
    return start, end, stats


def _run_storm(scenario: Scenario, deployment) -> Tuple[float, float, dict]:
    """A unicast storm driven straight at the transport seam.

    Every node sprays frames at its radio neighbors round-robin with
    jittered start times and trivial receive handlers — no protocol
    logic at all. This isolates the per-frame transport cost, which is
    exactly where the backends differ: the DES delivers every frame to
    O(degree) receivers, one kernel event each (every in-range radio
    hears it; they share one heap entry per frame), the
    fluid backend samples loss/delay in closed form and pays O(1) for a
    unicast nobody overhears. The dense storm pair is the headline
    DES-vs-fluid speedup number; the icpda pairs show the end-to-end
    gain, which protocol-handler work (identical on both backends)
    necessarily dilutes.
    """
    from repro.net.transport import create_transport
    from repro.sim.kernel import Simulator

    frames_per_node = 40
    window_s = 30.0
    start = time.perf_counter()
    sim = Simulator(seed=scenario.seed)
    stack = create_transport(scenario.transport, sim, deployment)
    received = [0]

    def on_storm(_node, _packet) -> None:
        received[0] += 1

    jitter = sim.rng.stream("storm.jitter")
    for node in stack.node_ids():
        stack.register_handler(node, "storm", on_storm)
    for node in stack.node_ids():
        neighbors = stack.neighbors(node)
        if not neighbors:
            continue
        for index in range(frames_per_node):
            # Driver overhead shared by both backends: one bound method
            # plus args per frame, no closure.
            sim.schedule(
                float(jitter.random()) * window_s,
                stack.send,
                (node, neighbors[index % len(neighbors)], "storm"),
            )
    sim.run()
    end = time.perf_counter()
    assert received[0] > 0, "degenerate scenario: nothing received"
    stats = dict(stack.medium.stats.snapshot())
    stats["events_fired"] = sim.stats.fired
    return start, end, stats


_RUNNERS: Dict[str, Callable] = {
    "icpda": _run_icpda,
    "tag": _run_tag,
    "storm": _run_storm,
}


def _measure(scenario: Scenario, repeats: int) -> dict:
    """Time one scenario best-of-``repeats``; returns its report entry."""
    deployment = _build_deployment(scenario)
    degree = _mean_degree(deployment)
    runner = _RUNNERS[scenario.protocol]
    if scenario.repeats is not None:
        repeats = scenario.repeats
    # The stats are the best pass's, so phase_seconds adds up to
    # best_seconds instead of to whichever pass ran last.
    best, yardsticks, stats = best_pass(
        repeats, lambda: runner(scenario, deployment)
    )
    entry = {
        "protocol": scenario.protocol,
        "transport": scenario.transport,
        "engine": scenario.engine,
        "num_nodes": scenario.num_nodes,
        "field_size_m": scenario.field_size,
        "mean_degree": round(degree, 2),
        "seed": scenario.seed,
        "repeats": max(1, repeats),
        "best_seconds": round(best, 6),
        "best_yardsticks": round(yardsticks, 1),
        "transmissions": stats.get("transmissions", 0),
        "deliveries": stats.get("deliveries", 0),
        "events_fired": stats.get("events_fired", 0),
        "tx_per_sec": round(stats.get("transmissions", 0) / best, 1),
        "peak_rss_mb": peak_rss_mb(),
    }
    if "phase_seconds" in stats:
        entry["phase_seconds"] = stats["phase_seconds"]
    return entry


def run_scenario(name: str, scenario: Scenario, repeats: int) -> dict:
    """Measure one scenario in a spawned subprocess of its own."""
    entry = run_isolated(name, _measure, scenario, repeats)
    print(
        f"{name:22s} N={scenario.num_nodes:<5d} "
        f"deg={entry['mean_degree']:5.1f} "
        f"best={entry['best_seconds']:8.3f}s {entry['best_yardsticks']:9.1f}y "
        f"{entry['tx_per_sec']:>10.1f} tx/s"
    )
    return entry


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        choices=("full", "quick"),
        default="full",
        help="full: paper-scale fields incl. N=2000 dense; quick: tiny CI smoke",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing passes per scenario; best pass is reported (default 3)",
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
    parser.add_argument(
        "--only",
        nargs="+",
        metavar="NAME",
        default=None,
        help="time only these scenarios and merge them into the existing report",
    )
    args = parser.parse_args(argv)

    scenarios = _scenarios(args.scale)
    output = args.output if args.output is not None else OUTPUT
    rows: Dict[str, dict] = {}
    if args.only is not None:
        unknown = sorted(set(args.only) - set(scenarios))
        if unknown:
            parser.error(f"unknown scenario(s) for --scale {args.scale}: {unknown}")
        scenarios = {name: scenarios[name] for name in args.only}
        if output.exists():
            previous = json.loads(output.read_text())
            if previous.get("scale") == args.scale:
                rows = previous["scenarios"]
    for name, scenario in scenarios.items():
        rows[name] = run_scenario(name, scenario, args.repeats)
    report = {
        "schema": "bench-e2e/1",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scale": args.scale,
        "scenarios": rows,
    }

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
