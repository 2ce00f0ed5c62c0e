"""Ablation A4: key management (EG predistribution) vs participation.

Expected shape: participation grows with ring size, tracking the
analytic ring-overlap probability (small rings strand clusters whose
member pairs share no key); a single captured ring yields only a small
disclosure probability (it must cover *all* of a victim's counterpart
links simultaneously).
"""

from benchmarks.conftest import emit
from repro.experiments.engine import run_serial
from repro.experiments.keymgmt import eg_spec
from repro.metrics.report import render_table


def test_a4_eg_predistribution(benchmark):
    rows = benchmark.pedantic(
        lambda: run_serial(
            eg_spec(ring_sizes=(8, 20, 40), pool_size=200, num_nodes=200, base_seed=0)
        ),
        rounds=1,
        iterations=1,
    )
    emit(
        "a4_keymgmt",
        render_table(rows, title="A4: EG key predistribution ablation"),
    )
    participations = [row["participation"] for row in rows]
    connects = [row["connect_prob"] for row in rows]
    assert connects == sorted(connects)
    # Bigger rings participate at least as well (tolerate sim noise).
    assert participations[-1] >= participations[0] - 0.05
    assert rows[-1]["participation"] > 0.7
    # Small rings visibly strand clusters.
    assert rows[0]["key_aborts"] >= rows[-1]["key_aborts"]
    for row in rows:
        assert row["captured_ring_disclosure"] < 0.3
