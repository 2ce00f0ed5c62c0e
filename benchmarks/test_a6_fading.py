"""Ablation A6: robustness to a fading channel.

Expected shape: under increasing range-edge fading, ack-less TAG sheds
readings silently (accuracy falls fast while still *looking* like an
answer), whereas iCPDA's ARQ'd exchanges hold accuracy up longer — and
when loss finally exceeds the census tolerance, iCPDA *rejects* instead
of silently under-reporting. Integrity machinery doubles as a data-
quality guarantee.
"""

from benchmarks.conftest import emit
from repro.experiments.engine import run_serial
from repro.experiments.fading import fading_spec
from repro.metrics.report import render_table


def test_a6_fading(benchmark):
    rows = benchmark.pedantic(
        lambda: run_serial(
            fading_spec(fading_levels=(0.0, 0.3, 0.6), num_nodes=200, seed=1)
        ),
        rounds=1,
        iterations=1,
    )
    emit(
        "a6_fading",
        render_table(rows, title="A6: accuracy under channel fading"),
    )
    tag = [row["tag_accuracy"] for row in rows]
    assert tag == sorted(tag, reverse=True), "TAG degrades with fading"
    clean, moderate, heavy = rows
    assert clean["icpda_accuracy"] is not None and clean["icpda_accuracy"] > 0.85
    # Moderate fading: iCPDA (ARQ) beats TAG (no acks) by a wide margin,
    # or refuses to answer.
    if moderate["icpda_accuracy"] is not None:
        assert moderate["icpda_accuracy"] > moderate["tag_accuracy"] + 0.1
    # Heavy fading: TAG silently delivers garbage; iCPDA must either
    # reject or stay closer to the truth than TAG.
    if heavy["icpda_accuracy"] is None:
        assert heavy["verdict"] != "accepted"
    else:
        assert heavy["icpda_accuracy"] >= heavy["tag_accuracy"]
    assert heavy["tag_accuracy"] < 0.5
