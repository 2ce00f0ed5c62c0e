"""CI benchmark smoke check.

Validates the committed benchmark artifacts and guards against gross
hot-path regressions:

1. strict-parses ``BENCH_e2e.json`` and ``BENCH_service.json`` at the
   repo root (schema, required per-scenario fields, no NaN/Inf; service
   scenarios must report QPS, p50/p95/p99 latency in order, and >= 2
   served epochs; e2e scenarios reporting ``phase_seconds`` must have
   the phases sum to roughly ``best_seconds`` — catching unclosed
   profiler spans and double-counted phases; quick-scale reports must
   carry ``best_yardsticks`` on every row);
2. runs the end-to-end benchmark at ``--scale quick`` on the current
   checkout and compares each scenario's ``best_yardsticks`` against the
   committed quick baseline (``benchmarks/baselines/BENCH_e2e_quick.json``
   — *baselines*, not the gitignored ``results/``) — any scenario slower
   than ``--max-ratio`` (default 2.0) times the baseline fails the job,
   and so does any scenario faster than the baseline divided by that
   ratio (a stale baseline, under which the slowdown gate has no
   teeth), and any scenario whose seeded counters (``transmissions``,
   ``deliveries``, ``events_fired``) differ from the baseline's at all:
   every quick round is seeded and deterministic on its transport, so
   any drift there is a behaviour change, not noise;
3. does the same for the aggregation-service benchmark
   (``run_service_bench.py`` at quick scale against
   ``benchmarks/baselines/BENCH_service_quick.json``), so the serving
   path — gateway batching, live-instance rounds, cache — is
   yardstick and peak-RSS gated alongside the protocol hot path.

The gate has one unit, the yardstick (``perfbench/speed.py``): a fixed
pure-Python loop timed every 50 ms while a scenario runs, so a row's
yardsticks are its duration times the host speed measured inside it.
On a shared host, other tenants slow the whole process 2-3x between
sessions; a row's seconds then swing by that much and its yardsticks do
not. Seconds stay in the rows for reading, never for gating.

The 2x tolerance is deliberately loose: CI runners differ from the host
the baselines came from in more than speed (cache sizes, interpreter
build), so this is a tripwire for order-of-magnitude mistakes (an
accidentally quadratic loop, a disabled fast path), not a precision
perf gate. The committed full-scale numbers in ``BENCH_e2e.json`` are
the reference for real perf work; refresh them — and the quick
baselines — whenever the hot path changes intentionally.

Run from the repo root::

    PYTHONPATH=src python benchmarks/check_bench.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
E2E_REPORT = REPO_ROOT / "BENCH_e2e.json"
SERVICE_REPORT = REPO_ROOT / "BENCH_service.json"
QUICK_BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "BENCH_e2e_quick.json"
SERVICE_QUICK_BASELINE = (
    REPO_ROOT / "benchmarks" / "baselines" / "BENCH_service_quick.json"
)

#: Required fields in every e2e scenario entry.
E2E_SCENARIO_FIELDS = (
    "protocol",
    "num_nodes",
    "mean_degree",
    "seed",
    "best_seconds",
    "transmissions",
    "events_fired",
)
#: Required fields in every aggregation-service scenario entry.
SERVICE_SCENARIO_FIELDS = (
    "num_nodes",
    "seed",
    "clients",
    "queries_per_client",
    "best_seconds",
    "qps",
    "p50_s",
    "p95_s",
    "p99_s",
    "served",
    "epochs",
    "peak_rss_mb",
)
#: The gate's unit: required, and positive, on every quick-scale row.
GATED = "best_yardsticks"
#: ``--min-slack`` default: 0.05 s at the quick baselines' recorded
#: speed (their rows' median, about 1,200 yardsticks per second).
MIN_SLACK_YARDSTICKS = 60.0


def _reject_constant(token: str) -> None:
    raise SystemExit(f"non-strict JSON token {token!r}")


def _load_strict(path: pathlib.Path) -> dict:
    """Parse ``path`` as strict JSON (NaN/Infinity rejected)."""
    if not path.is_file():
        raise SystemExit(f"missing benchmark artifact: {path}")
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _load_scenarios(path: pathlib.Path, schema: str, fields) -> dict:
    """Parse a report of ``schema``; check that every scenario carries
    ``fields`` (plus :data:`GATED` at quick scale) and positive times."""
    report = _load_strict(path)
    if report.get("schema") != schema:
        raise SystemExit(f"{path.name}: unexpected schema {report.get('schema')!r}")
    scenarios = report.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        raise SystemExit(f"{path.name}: no scenarios")
    if report.get("scale") == "quick":
        fields = (*fields, GATED)
    for name, entry in scenarios.items():
        for field in fields:
            if field not in entry:
                raise SystemExit(f"{path.name}: scenario {name} missing {field!r}")
        if entry["best_seconds"] <= 0 or entry.get(GATED, 1) <= 0:
            raise SystemExit(f"{path.name}: scenario {name} has non-positive time")
    return scenarios


def check_e2e_report(path: pathlib.Path) -> dict:
    """Validate a bench-e2e report; returns its scenarios mapping."""
    scenarios = _load_scenarios(path, "bench-e2e/1", E2E_SCENARIO_FIELDS)
    for name, entry in scenarios.items():
        phases = entry.get("phase_seconds")
        if phases is not None:
            # phase_seconds comes from the same pass best_seconds does,
            # and the phases are disjoint spans inside the timed region:
            # their sum can only exceed best_seconds if a phase was
            # double-counted, and a sum far below it means a span never
            # closed (or attribution silently moved out of the phases).
            total = sum(phases.values())
            best = entry["best_seconds"]
            if total > best * 1.02 + 0.02:
                raise SystemExit(
                    f"{path.name}: scenario {name} phase_seconds sum "
                    f"{total:.3f}s exceeds best_seconds {best:.3f}s"
                )
            if total < best * 0.5 - 0.02:
                raise SystemExit(
                    f"{path.name}: scenario {name} phase_seconds sum "
                    f"{total:.3f}s is under half of best_seconds "
                    f"{best:.3f}s (unclosed profiler span?)"
                )
    return scenarios


def check_service_report(path: pathlib.Path) -> dict:
    """Validate a bench-service report; returns its scenarios mapping.

    Beyond field presence, the structural guarantees the service bench
    asserts are re-checked here so a hand-edited artifact cannot sneak
    past: positive wall-clock and QPS, latency percentiles in
    non-decreasing order, and at least two served epochs (one epoch
    means the run never exercised the long-lived path).
    """
    scenarios = _load_scenarios(path, "bench-service/1", SERVICE_SCENARIO_FIELDS)
    for name, entry in scenarios.items():
        if entry["qps"] <= 0:
            raise SystemExit(f"{path.name}: scenario {name} has non-positive qps")
        if not entry["p50_s"] <= entry["p95_s"] <= entry["p99_s"]:
            raise SystemExit(
                f"{path.name}: scenario {name} latency percentiles out of order"
            )
        if entry["epochs"] < 2:
            raise SystemExit(
                f"{path.name}: scenario {name} served fewer than 2 epochs"
            )
    return scenarios


def _run_quick(script: str, repeats: int, checker) -> dict:
    """Run a benchmark script at quick scale; validate and return it."""
    with tempfile.TemporaryDirectory() as tmp:
        output = pathlib.Path(tmp) / "bench_quick.json"
        subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "benchmarks" / script),
                "--scale",
                "quick",
                "--repeats",
                str(repeats),
                "--output",
                str(output),
            ],
            check=True,
            cwd=REPO_ROOT,
        )
        return checker(output)


def run_quick_bench(repeats: int) -> dict:
    """Run the e2e bench at quick scale; returns its scenarios mapping."""
    return _run_quick("run_e2e_bench.py", repeats, check_e2e_report)


def run_quick_service_bench(repeats: int) -> dict:
    """Run the service bench at quick scale; returns its scenarios."""
    return _run_quick("run_service_bench.py", repeats, check_service_report)


def compare(
    baseline: dict, fresh: dict, max_ratio: float, min_slack: float
) -> int:
    """Print per-scenario ratios; return the number of regressions.

    Every bar is in yardsticks (``best_yardsticks``); a baseline row
    without them cannot be compared and raises ``SystemExit``. A
    scenario regresses when it exceeds ``baseline * max_ratio`` *and*
    ``baseline + min_slack``: the sub-10ms quick scenarios are dominated
    by constant scheduler noise, so a pure ratio would flap on them
    while an order-of-magnitude mistake still blows far past both bars.
    Symmetrically, a scenario under ``baseline / max_ratio`` *and*
    ``baseline - min_slack`` fails as stale: its baseline is so slow
    that a ``max_ratio`` slowdown of the current code would still pass,
    so the baseline must be re-recorded.

    The scenario *sets* must match exactly, in both directions: a
    scenario in the baseline but not the fresh run means a timed path
    silently stopped being exercised, and a scenario in the fresh run
    but not the baseline means someone added one without refreshing
    ``benchmarks/baselines/`` — so its perf is ungated. Either way the
    gate fails instead of shrugging.

    Baseline entries may carry ``max_peak_rss_mb``: a ceiling on the
    fresh run's ``peak_rss_mb`` for that scenario. Scenarios run in
    isolated subprocesses, so the counter is a true per-scenario
    high-water mark — the gate exists to catch a memory blow-up in the
    vectorized bulk path, where an accidental dense N x N intermediate
    multiplies the footprint.
    """
    regressions = 0
    for name in sorted(fresh.keys() - baseline.keys()):
        print(f"FAIL {name}: present in fresh run but missing from baseline "
              "(refresh benchmarks/baselines/BENCH_e2e_quick.json)")
        regressions += 1
    for name, base_entry in sorted(baseline.items()):
        fresh_entry = fresh.get(name)
        if fresh_entry is None:
            print(f"FAIL {name}: missing from fresh run")
            regressions += 1
            continue
        if GATED not in base_entry:
            raise SystemExit(f"baseline row {name} has no {GATED}; re-record "
                             "benchmarks/baselines/ with the current runners")
        base = base_entry[GATED]
        now = fresh_entry[GATED]
        ratio = now / base
        regressed = ratio > max_ratio and now > base + min_slack
        stale = ratio < 1.0 / max_ratio and now < base - min_slack
        verdict = "REGRESSED" if regressed else "STALE" if stale else "ok"
        print(f"{name:26s} baseline={base:9.1f}y now={now:9.1f}y x{ratio:5.2f} "
              f"({fresh_entry['best_seconds']:.4f}s) {verdict}")
        if regressed:
            regressions += 1
        if stale:
            print(f"FAIL {name}: stale baseline, {now:.1f}y is under "
                  f"{base:.1f}y / {max_ratio}; re-record it")
            regressions += 1
        rss_ceiling = base_entry.get("max_peak_rss_mb")
        if rss_ceiling is not None:
            rss_now = fresh_entry.get("peak_rss_mb")
            if rss_now is None:
                print(f"FAIL {name}: baseline sets max_peak_rss_mb but fresh "
                      "entry has no peak_rss_mb")
                regressions += 1
            elif rss_now > rss_ceiling:
                print(f"FAIL {name}: peak RSS {rss_now:.1f} MB exceeds "
                      f"ceiling {rss_ceiling:.1f} MB")
                regressions += 1
    return regressions


#: Seeded counters a fresh pinned quick scenario must reproduce exactly.
SEEDED_COUNTERS = ("transmissions", "deliveries", "events_fired")
#: Transports whose quick rows are held to their seeded counters.
PINNED_TRANSPORTS = ("des", "fluid", "fluid-bulk")


def compare_counters(baseline: dict, fresh: dict) -> int:
    """Print drifted seeded counters; return the number of scenarios
    whose seeded counters differ from the baseline.

    Rows of every transport in :data:`PINNED_TRANSPORTS` are held to
    exact counters.
    """
    drifted = 0
    for name, base_entry in sorted(baseline.items()):
        fresh_entry = fresh.get(name)
        pinned = base_entry.get("transport") in PINNED_TRANSPORTS
        if fresh_entry is None or not pinned:
            continue
        changes = [
            f"{key} {base_entry[key]} -> {fresh_entry.get(key)}"
            for key in SEEDED_COUNTERS
            if fresh_entry.get(key) != base_entry[key]
        ]
        if changes:
            print(f"FAIL {name}: seeded counters drifted: {', '.join(changes)}")
            drifted += 1
    return drifted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=2.0,
        help="fail when a quick scenario is slower than baseline * ratio, or "
        "faster than baseline / ratio (a stale baseline; default 2.0)",
    )
    parser.add_argument(
        "--min-slack",
        type=float,
        default=MIN_SLACK_YARDSTICKS,
        help="yardsticks a scenario must also differ from its baseline by "
        "before counting as regressed or stale (noise floor, default "
        f"{MIN_SLACK_YARDSTICKS:g}: 0.05 s at the baselines' recorded speed)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing passes per quick scenario (default 3)",
    )
    parser.add_argument(
        "--skip-run",
        action="store_true",
        help="only validate the committed artifacts; skip the fresh quick run",
    )
    args = parser.parse_args(argv)

    scenarios = check_e2e_report(E2E_REPORT)
    service_scenarios = check_service_report(SERVICE_REPORT)
    print(
        f"{E2E_REPORT.name}: {len(scenarios)} scenarios ok; "
        f"{SERVICE_REPORT.name}: {len(service_scenarios)} scenarios ok"
    )

    if args.skip_run:
        return 0

    baseline = check_e2e_report(QUICK_BASELINE)
    fresh = run_quick_bench(args.repeats)
    regressions = compare(baseline, fresh, args.max_ratio, args.min_slack)
    regressions += compare_counters(baseline, fresh)

    service_baseline = check_service_report(SERVICE_QUICK_BASELINE)
    service_fresh = run_quick_service_bench(args.repeats)
    regressions += compare(
        service_baseline, service_fresh, args.max_ratio, args.min_slack
    )

    if regressions:
        print(f"{regressions} scenario(s) failed: regressed beyond "
              f"{args.max_ratio}x, stale, or drifted")
        return 1
    print(
        f"all {len(baseline)} quick e2e + {len(service_baseline)} quick "
        f"service scenarios within {args.max_ratio}x of baseline"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
