"""Experiment F10: network lifetime under a fixed radio energy budget.

Expected shape: the privacy/integrity machinery costs lifetime — iCPDA
drains hot nodes (relays near the base station) several times faster
than TAG, its first node death and answer failure arrive earlier, and
the lifetime gap roughly mirrors the F3 byte-overhead factor.

The maintenance variant (participation-triggered tree rebuilds) shows
the deeper invariant: rebuilding routes around dead relays and keeps
per-round participation high, but burns the same fixed energy pool
faster — so **total readings delivered over the network's life is
approximately conserved**; maintenance trades longevity for per-round
data quality, it cannot mint energy.
"""

from benchmarks.conftest import emit
from repro.experiments.engine import run_serial
from repro.experiments.lifetime import lifetime_spec
from repro.metrics.report import render_table


def test_f10_lifetime(benchmark):
    rows = benchmark.pedantic(
        lambda: run_serial(
            lifetime_spec(num_nodes=120, capacity_j=1.0, max_rounds=25, seed=2)
        ),
        rounds=1,
        iterations=1,
    )
    emit(
        "f10_lifetime",
        render_table(rows, title="F10: rounds of life under a 1 J radio budget"),
    )
    by_scheme = {row["scheme"]: row for row in rows}
    tag = by_scheme["tag"]
    icpda = by_scheme["icpda"]
    rebuild = by_scheme["icpda+rebuild"]

    def death(row):
        return row["first_death_round"] or 10**9  # None = survived sweep

    # iCPDA pays for protection with lifetime.
    assert death(icpda) < death(tag)
    assert icpda["rounds_survived"] <= tag["rounds_survived"]
    assert tag["readings_delivered"] > icpda["readings_delivered"]
    # Maintenance actually rebuilt, and shortened the calendar life...
    assert rebuild["rebuilds"] >= 1
    assert rebuild["rounds_survived"] <= icpda["rounds_survived"]
    # ...but total delivered readings are approximately conserved: the
    # battery, not the tree, is the binding constraint.
    assert rebuild["readings_delivered"] > icpda["readings_delivered"] * 0.75
    assert rebuild["readings_delivered"] < icpda["readings_delivered"] * 1.5
    # Every scheme fails closed or survives the sweep — never silently.
    assert icpda["failed_at_round"] is not None or icpda["rounds_survived"] == 25
