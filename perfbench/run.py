"""Run the iCPDA benchmark: one workload, or all of them.

From the repository root::

    python3 perfbench/run.py --workload round-1k-des --seed 1
    python3 perfbench/run.py --workload serve-1k-fluid --seed 1 --trace 1
    python3 perfbench/run.py --seed 1 --out perfbench/results/a.jsonl
    python3 perfbench/run.py compare A.jsonl B.jsonl

With ``--workload`` the workload runs in this process; without it every
workload runs in turn, each in a fresh interpreter, so no heap, garbage
or peak-RSS state carries from one into the next. ``--trace 0`` (the
default) prints the end-to-end metrics; ``--trace 1`` first runs one
untraced reference operation, then the workload with layer spans on,
checks that both produced the same results, prints the per-layer
metrics and writes the spans to ``perfbench/results/``.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every correctness check passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import pathlib
import subprocess
import sys
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, tiny: bool = False
) -> dict:
    """Run one workload in this process.

    Returns ``{"result": ..., "notes": ..., "errors": ..., "tracer": ...}``
    where ``result`` is the object the benchmark prints last. ``tiny``
    selects the workload's seconds-long variant (used by the tests).
    """
    from perfbench.metrics import end_to_end, per_layer
    from perfbench.tracing import Tracer, tracing
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    spec = workload.tiny if tiny else workload.spec
    tracer: Optional[Tracer] = None
    notes: Dict[str, str] = {}
    if not trace:
        out = workload.run(name, spec, seed, seconds)
        values, notes = end_to_end(out)
    else:
        single = (
            dataclasses.replace(spec, setups=1) if hasattr(spec, "setups") else spec
        )
        reference = workload.run(name, single, seed, 0.0, min_ops=1)
        gc.collect()
        tracer = Tracer(prefix=name)
        with tracing(tracer):
            out = workload.run(name, spec, seed, seconds, tracer)
        if out.signature != reference.signature:
            out.errors.append(
                "traced run differs from untraced run: "
                f"{out.signature!r} != {reference.signature!r}"
            )
        values = per_layer(out, tracer, out.first_op_s / reference.first_op_s)
    result = {
        "correct": not out.errors,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": values,
    }
    return {"result": result, "notes": notes, "errors": out.errors, "tracer": tracer}


def write_spans(tracer, path: pathlib.Path) -> None:
    """Write every recorded coarse span as one JSON object per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")


def _run_one(args, spec: dict) -> int:
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result, notes = report["result"], report["notes"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in result["metrics"].items()
    }
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, metric in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:26s} {metric['value']:14.6g} {metric['unit']}{note}")
    for error in report["errors"][:20]:
        print(f"FAIL: {error}")
    if report["tracer"] is not None:
        path = RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl"
        write_spans(report["tracer"], path)
        print(f"# {len(report['tracer'].spans)} spans -> {path.relative_to(ROOT)}")
    if args.out is not None:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "result": result,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with args.out.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _run_all(args, spec: dict) -> int:
    """Each workload in its own interpreter, one after another."""
    status = 0
    for name in (entry["name"] for entry in spec["workloads"]):
        command = [
            sys.executable,
            str(pathlib.Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.out is not None:
            command += ["--out", str(args.out)]
        sys.stdout.flush()
        status |= subprocess.run(command, cwd=ROOT, check=False).returncode != 0
    return status


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not BENCHMARK.is_file():
        print(
            f"perfbench: {ROOT} holds no src/repro package or no BENCHMARK.json; "
            "run from a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    if argv and argv[0] == "compare":
        from perfbench.compare import main as compare_main

        return compare_main(argv[1:])

    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=_non_negative, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=spec["run_seconds"],
        help="measurement budget per workload (default: run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0
    )
    parser.add_argument(
        "--out", type=pathlib.Path, help="append each run's result as a JSON line"
    )
    args = parser.parse_args(argv)
    return _run_one(args, spec) if args.workload else _run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
