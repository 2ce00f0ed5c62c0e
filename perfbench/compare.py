"""Compare two sets of benchmark runs under the bounds in BENCHMARK.json.

    python3 perfbench/run.py compare BASE.jsonl CHANGE.jsonl

Each file holds the JSON lines ``run.py --out`` appends, one per run;
run each side several times with different seeds. For every workload
and end-to-end metric one row gives both medians, the change, each
side's spread (interquartile distance over the median) and a verdict:

* ``unresolved`` - a side's spread exceeds the metric's bound, so the
  runs cannot tell a change of that size from noise (unless every run
  of the change beats every run of the base: ``improved``);
* ``REGRESSED`` / ``improved`` - the medians differ by more than the
  bound, in the worse / better direction;
* ``unchanged`` - otherwise.

Per-layer metrics of traced runs are listed for attribution, without a
verdict, and every traced run must have per-layer self times that add up
to its traced round time within 5%. The exit code is 1 when any metric
regressed, a layer sum is off, or a workload is missing from one side.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from perfbench.metrics import layer_sum_ratio
from perfbench.stats import spread

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: How far per-layer self times may stray from the traced round time.
LAYER_SUM_TOLERANCE = 0.05

Runs = Dict[Tuple[str, int], Dict[str, List[float]]]


def _records(path: pathlib.Path) -> List[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def load(path: pathlib.Path) -> Runs:
    """``(workload, trace) -> metric -> values``, one value per run."""
    runs: Runs = defaultdict(lambda: defaultdict(list))
    for record in _records(path):
        bucket = runs[(record["workload"], int(record["trace"]))]
        for name, metric in record["result"]["metrics"].items():
            bucket[name].append(float(metric["value"]))
    return runs


def verdict(
    base: Sequence[float], change: Sequence[float], bound: float, better: str
) -> Tuple[str, float]:
    """``(verdict, relative change)``; a positive change is a worsening."""
    middle_base, middle_change = statistics.median(base), statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    if middle_base:
        worse = sign * (middle_change - middle_base) / abs(middle_base)
    else:
        worse = 0.0 if middle_change == middle_base else sign * float("inf")
    if max(spread(base), spread(change)) > bound:
        wins = all(sign * (c - b) < 0 for c in change for b in base)
        return ("improved" if wins else "unresolved"), worse
    if worse > bound:
        return "REGRESSED", worse
    if worse < -bound:
        return "improved", worse
    return "unchanged", worse


def _layer_sum_failures(label: str, path: pathlib.Path) -> List[str]:
    failures = []
    for record in _records(path):
        if not int(record["trace"]):
            continue
        values = {k: m["value"] for k, m in record["result"]["metrics"].items()}
        ratio = layer_sum_ratio(values)
        if abs(ratio - 1.0) > LAYER_SUM_TOLERANCE:
            failures.append(
                f"{label} {record['workload']} seed {record['seed']}: per-layer "
                f"self times sum to {ratio:.3f} of the traced round time"
            )
    return failures


def compare(base_path: pathlib.Path, change_path: pathlib.Path) -> Tuple[List[str], bool]:
    """The report lines, and whether the change passes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(base_path), load(change_path)
    lines = [
        f"{'workload':18s} {'metric':24s} {'base':>12s} {'change':>12s} "
        f"{'delta':>8s} {'spread':>15s} {'bound':>6s}  verdict"
    ]
    ok = True
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            left, right = base.get((workload, trace)), change.get((workload, trace))
            if left is None or right is None:
                if trace == 0:
                    lines.append(f"{workload:18s} missing untraced runs on one side")
                    ok = False
                continue
            for metric in metrics:
                name, bound = metric["name"], metric.get("bound")
                if name not in left or name not in right:
                    lines.append(f"{workload:18s} {name:24s} missing")
                    ok = ok and bound is None
                    continue
                if bound is None:  # per-layer: attribution only
                    _, worse = verdict(left[name], right[name], float("inf"), metric["better"])
                    result = "(layer)"
                else:
                    result, worse = verdict(left[name], right[name], bound, metric["better"])
                ok = ok and result != "REGRESSED"
                spreads = f"{spread(left[name]):.1%}/{spread(right[name]):.1%}"
                lines.append(
                    f"{workload:18s} {name:24s} {statistics.median(left[name]):12.6g} "
                    f"{statistics.median(right[name]):12.6g} {worse:+8.1%} "
                    f"{spreads:>15s} {'' if bound is None else f'{bound:.0%}':>6s}  {result}"
                )
    failures = _layer_sum_failures("base", base_path) + _layer_sum_failures(
        "change", change_path
    )
    lines.extend(f"LAYER SUM: {failure}" for failure in failures)
    return lines, ok and not failures


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BASE.jsonl CHANGE.jsonl")
        return 2
    lines, ok = compare(pathlib.Path(argv[0]), pathlib.Path(argv[1]))
    print("\n".join(lines))
    return 0 if ok else 1
