"""Experiment F9: scheme comparison — TAG vs slicing vs iCPDA.

Expected shape: TAG is cheapest and fully exposed (cleartext readings);
slicing cuts disclosure by orders of magnitude for an l-linear byte
overhead but offers no integrity; iCPDA matches or beats slicing's
privacy at comparable order of overhead *and* adds witnessed integrity.
All schemes' accepted accuracy stays in the same band.
"""

from benchmarks.conftest import emit
from repro.experiments.compare_schemes import compare_spec
from repro.experiments.engine import run_serial
from repro.metrics.report import render_table


def test_f9_scheme_comparison(benchmark):
    rows = benchmark.pedantic(
        lambda: run_serial(compare_spec(num_nodes=250, p_x=0.05, seed=4)),
        rounds=1,
        iterations=1,
    )
    emit(
        "f9_schemes",
        render_table(rows, title="F9: TAG vs slicing vs iCPDA"),
    )
    by_scheme = {row["scheme"]: row for row in rows}
    tag, icpda = by_scheme["tag"], by_scheme["icpda"]
    slicing2 = by_scheme["slicing_l2"]

    # Cost ladder.
    assert tag["bytes"] < slicing2["bytes"] < icpda["bytes"] * 3
    # Privacy ladder: everything beats cleartext TAG by a lot.
    assert slicing2["p_disclose"] < 0.2
    assert icpda["p_disclose"] < 0.1
    assert tag["p_disclose"] == 1.0
    # Only iCPDA claims integrity.
    assert icpda["integrity"] != "none"
    assert tag["integrity"] == "none"
    # Accuracy band.
    for row in rows:
        if row["accuracy"] is not None:
            assert 0.7 < row["accuracy"] < 1.25
