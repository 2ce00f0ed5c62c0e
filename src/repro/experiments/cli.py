"""Command-line experiment runner.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run T1 [--out results/]
    python -m repro.experiments run F4 --quick --engine batched --transport fluid-bulk
    python -m repro.experiments run F3 --quick --trace=medium,mac --trace-out traces/
    python -m repro.experiments run-all --quick --out results/

``--quick`` shrinks sweeps/trials to smoke-test scale; the default
parameters match the benchmark harness. Results print as tables and,
with ``--out``, persist as JSON artifacts plus a run manifest (see
:mod:`repro.experiments.io`).

Every experiment is decomposed into independent ``(sweep point, trial)``
cells (:mod:`repro.experiments.engine`), run one after another in this
process. A crashing cell becomes a failure row and a nonzero exit code;
the other cells still run. Artifact rows are identical on every run
because every cell carries its own seed.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import IcpdaConfig
from repro.experiments.engine import (
    ExperimentSpec,
    collect_rows,
    execute,
    failure_rows,
)
from repro.experiments.io import save_manifest, save_rows
from repro.metrics.report import render_table
from repro.net.transport import TRANSPORT_KINDS

#: experiment id -> (description, full spec builder, quick spec builder)
SpecBuilder = Callable[[], ExperimentSpec]


def _registry() -> Dict[str, Tuple[str, SpecBuilder, SpecBuilder]]:
    from repro.experiments.ablation import cluster_size_spec, witness_spec
    from repro.experiments.accuracy import accuracy_spec, aggregate_comparison_spec
    from repro.experiments.compare_schemes import compare_spec
    from repro.experiments.coverage import coverage_spec
    from repro.experiments.density import density_spec
    from repro.experiments.detection import collusion_spec, detection_spec
    from repro.experiments.election import election_spec
    from repro.experiments.fading import fading_spec
    from repro.experiments.integrity_cost import integrity_cost_spec
    from repro.experiments.keymgmt import eg_spec
    from repro.experiments.latency import latency_spec
    from repro.experiments.lifetime import lifetime_spec
    from repro.experiments.localization import localization_spec
    from repro.experiments.overhead import overhead_spec
    from repro.experiments.privacy import privacy_spec
    from repro.experiments.threshold import threshold_spec

    return {
        "T1": (
            "network size vs average degree",
            lambda: density_spec(),
            lambda: density_spec(sizes=(100, 200), trials=2),
        ),
        "T2": (
            "every aggregate function through one round",
            lambda: aggregate_comparison_spec(),
            lambda: aggregate_comparison_spec(num_nodes=150),
        ),
        "F1": (
            "cluster coverage vs network size",
            lambda: coverage_spec(),
            lambda: coverage_spec(sizes=(150,), trials=1),
        ),
        "F2": (
            "privacy capacity vs p_x",
            lambda: privacy_spec(),
            lambda: privacy_spec(
                cluster_sizes=(3,), px_grid=(0.05,), num_nodes=150, draws=50
            ),
        ),
        "F3": (
            "communication overhead vs size",
            lambda: overhead_spec(),
            lambda: overhead_spec(sizes=(150,), cluster_sizes=(3,), trials=1),
        ),
        "F4": (
            "accuracy vs size, TAG vs iCPDA",
            lambda: accuracy_spec(),
            lambda: accuracy_spec(sizes=(150,), trials=1),
        ),
        "F5": (
            "Th selection",
            lambda: threshold_spec(),
            lambda: threshold_spec(points=((150, 400.0), (1000, 672.0)), trials=3),
        ),
        "F6": (
            "pollution detection vs attackers",
            lambda: detection_spec(),
            lambda: detection_spec(attacker_counts=(1,), num_nodes=150, trials=1),
        ),
        "F7": (
            "attacker localization rounds",
            lambda: localization_spec(),
            lambda: localization_spec(sizes=(150,), trials=1),
        ),
        "F8": (
            "latency and energy vs size",
            lambda: latency_spec(),
            lambda: latency_spec(sizes=(150,)),
        ),
        "F9": (
            "scheme comparison: TAG vs slicing vs iCPDA",
            lambda: compare_spec(),
            lambda: compare_spec(num_nodes=150),
        ),
        "F10": (
            "network lifetime under an energy budget",
            lambda: lifetime_spec(),
            lambda: lifetime_spec(num_nodes=100, capacity_j=0.8, max_rounds=10),
        ),
        "A1": (
            "witness-fraction ablation",
            lambda: witness_spec(),
            lambda: witness_spec(fractions=(1.0,), num_nodes=150, trials=1),
        ),
        "A2": (
            "cluster-size ablation",
            lambda: cluster_size_spec(),
            lambda: cluster_size_spec(cluster_sizes=(3,), num_nodes=150),
        ),
        "A3": (
            "collusion boundary",
            lambda: collusion_spec(),
            lambda: collusion_spec(num_nodes=150, trials=1),
        ),
        "A4": (
            "EG key predistribution ablation",
            lambda: eg_spec(),
            lambda: eg_spec(ring_sizes=(40,), num_nodes=150),
        ),
        "A5": (
            "fixed vs adaptive head election",
            lambda: election_spec(),
            lambda: election_spec(sizes=(150,)),
        ),
        "A6": (
            "robustness under channel fading",
            lambda: fading_spec(),
            lambda: fading_spec(fading_levels=(0.0, 0.4), num_nodes=150),
        ),
        "A7": (
            "integrity layer cost and value",
            lambda: integrity_cost_spec(),
            lambda: integrity_cost_spec(num_nodes=150),
        ),
    }


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quick", action="store_true", help="smoke-test scale")
    parser.add_argument(
        "--out", type=pathlib.Path, default=None, help="JSON output directory"
    )
    parser.add_argument(
        "--transport",
        choices=TRANSPORT_KINDS,
        default="des",
        help=(
            "network backend for every cell (default: des). 'fluid' "
            "samples the analytic channel per frame; 'fluid-bulk' is "
            "the same model resolved in vectorized batches (large-N "
            "sweeps, see docs/TRANSPORT.md)."
        ),
    )
    parser.add_argument(
        "--engine",
        choices=("scalar", "batched"),
        default="scalar",
        help=(
            "Phase II-IV engines for every cell (default: scalar). "
            "'batched' computes cluster formation, the share exchange "
            "and the report/verdict wave in-process and replays the "
            "frames through the transport (equal outcomes on lossless "
            "transports, seeded determinism otherwise, see "
            "docs/PERF.md)."
        ),
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="CATEGORIES",
        help=(
            "collect run telemetry (traces + metrics) per cell; optional "
            "comma-separated category prefixes, e.g. --trace=medium,mac "
            "(bare --trace keeps every category)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help=(
            "write one JSONL trace file per cell under DIR/<experiment>/ "
            "(implies --trace)"
        ),
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids")
    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment id, e.g. T1 or F4")
    _add_run_flags(run_parser)
    all_parser = sub.add_parser(
        "run-all", help="run every experiment in sequence"
    )
    _add_run_flags(all_parser)
    args = parser.parse_args(argv)
    registry = _registry()

    if args.command == "list":
        for exp_id, (description, _, _) in sorted(registry.items()):
            print(f"{exp_id:4} {description}")
        return 0

    # Telemetry: --trace-out implies --trace; --trace=a,b whitelists
    # category prefixes.
    telemetry = None
    if args.trace is not None or args.trace_out is not None:
        categories = None
        if args.trace:
            categories = [c.strip() for c in args.trace.split(",") if c.strip()]
        telemetry = {"categories": categories}

    def run_one(exp_id: str) -> int:
        description, full, quick = registry[exp_id]
        spec = (quick if args.quick else full)()
        # Cells read the transport from the spec context. Config objects
        # in the context are rewritten in place — that is how every
        # experiment that takes its IcpdaConfig from the spec context
        # picks the engine up.
        if args.transport != "des":
            spec.context["transport"] = args.transport
        if args.engine != "scalar":
            for key, value in spec.context.items():
                if isinstance(value, IcpdaConfig):
                    spec.context[key] = replace(value, engine=args.engine)
        report = execute(
            spec,
            progress=lambda line: print(line, file=sys.stderr),
            telemetry=telemetry,
            trace_dir=args.trace_out,
        )
        rows = collect_rows(spec, report) + failure_rows(report)
        print(render_table(rows, title=f"{exp_id}: {description}"))
        manifest = report.manifest()
        print(
            f"cells: {report.done}/{report.total} ok"
            f" ({report.failed} failed)"
            f" in {report.wall_clock_s:.2f}s",
            file=sys.stderr,
        )
        block = report.telemetry_block()
        if block is not None:
            line = (
                f"telemetry: {block['trace_records']} trace records"
                f" from {block['cells_with_telemetry']} cells"
            )
            if args.trace_out is not None:
                line += f" -> {args.trace_out / spec.experiment}"
            print(line, file=sys.stderr)
        if args.out is not None:
            artifact = save_rows(
                args.out / f"{exp_id.lower()}.json",
                exp_id,
                rows,
                parameters={"quick": args.quick},
            )
            save_manifest(args.out / f"{exp_id.lower()}.manifest.json", manifest)
            print(f"\nsaved: {artifact}")
        return 1 if report.failed else 0

    if args.command == "run-all":
        failures: List[str] = []
        for exp_id in sorted(registry):
            print(f"\n=== {exp_id} ===")
            try:
                if run_one(exp_id) != 0:
                    failures.append(f"{exp_id}: cell failures (see artifact)")
            except Exception as error:  # keep going; report at the end
                failures.append(f"{exp_id}: {type(error).__name__}: {error}")
                print(f"{exp_id} FAILED: {error}", file=sys.stderr)
        if failures:
            print("\nrun-all: FAILED experiments:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print("\nrun-all: all experiments completed")
        return 0

    exp_id = args.experiment.upper()
    if exp_id not in registry:
        print(f"unknown experiment {exp_id!r}; try: list", file=sys.stderr)
        return 2
    return run_one(exp_id)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
