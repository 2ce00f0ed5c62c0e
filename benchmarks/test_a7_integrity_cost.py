"""Ablation A7: the integrity layer's cost and value.

Expected shape: witnessed mode costs a modest byte/energy premium over
privacy-only operation (F-sets, itemized reports, alarms; most of the
"cost" of witnessing is listening, which is rx energy, not bytes) — and
the value side is binary: the same tamper that the witnessed run
rejects sails through privacy-only mode as an accepted, silently wrong
answer.
"""

from benchmarks.conftest import emit
from repro.experiments.engine import run_serial
from repro.experiments.integrity_cost import integrity_cost_spec
from repro.metrics.report import render_table


def test_a7_integrity_cost(benchmark):
    rows = benchmark.pedantic(
        lambda: run_serial(integrity_cost_spec(num_nodes=250, seed=4)),
        rounds=1,
        iterations=1,
    )
    emit(
        "a7_integrity_cost",
        render_table(rows, title="A7: integrity layer cost and value"),
    )
    by_mode = {row["mode"]: row for row in rows}
    witnessed, none = by_mode["witnessed"], by_mode["none"]

    # Cost: witnessed is dearer, within a 1.5x envelope.
    assert none["bytes"] < witnessed["bytes"] < none["bytes"] * 1.5
    # Both clean rounds accepted.
    assert witnessed["clean_verdict"] == none["clean_verdict"] == "accepted"
    # Value: the tamper is rejected with integrity, accepted without.
    assert witnessed["attack_acted"] and none["attack_acted"]
    assert witnessed["attacked_verdict"] == "rejected_alarm"
    assert none["attacked_verdict"] == "accepted"
    assert none["accepted_error"] is not None and none["accepted_error"] > 0.2
