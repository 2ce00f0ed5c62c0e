"""Smoke tests: every experiment runs end-to-end at reduced scale and
produces rows of the documented shape. (The benchmarks run the full
scale; these keep the experiment code under ordinary test coverage.)"""

import math

import pytest

from repro.experiments.ablation import cluster_size_spec, witness_spec
from repro.experiments.accuracy import accuracy_spec, aggregate_comparison_spec
from repro.experiments.common import (
    fixed_cluster_config,
    make_readings,
    run_icpda_round,
    run_tag_round_on,
)
from repro.errors import ReproError
from repro.experiments.coverage import coverage_spec
from repro.experiments.density import density_spec
from repro.experiments.detection import collusion_spec
from repro.experiments.engine import run_serial
from repro.experiments.keymgmt import eg_spec
from repro.experiments.latency import latency_spec
from repro.experiments.overhead import overhead_spec
from repro.experiments.privacy import privacy_spec
from repro.experiments.threshold import recommend_th, run_threshold_experiment


class TestCommon:
    def test_make_readings_kinds(self):
        for kind in ("metering", "uniform", "gaussian", "constant"):
            readings = make_readings(50, kind=kind)
            assert set(readings) == set(range(1, 50))
            assert all(v > 0 for v in readings.values())

    def test_unknown_workload_rejected(self):
        with pytest.raises(ReproError):
            make_readings(10, kind="weird")

    def test_fixed_cluster_config_adapts_pc(self):
        assert fixed_cluster_config(4).p_c == pytest.approx(0.25)
        assert fixed_cluster_config(4, p_c=0.5).p_c == 0.5
        with pytest.raises(ReproError):
            fixed_cluster_config(1)

    def test_paired_drivers_use_same_deployment(self):
        tag_result, tag_stack = run_tag_round_on(80, seed=5)
        _, protocol = run_icpda_round(80, seed=5)
        assert (
            tag_stack.deployment.positions == protocol.deployment.positions
        ).all()


class TestExperimentShapes:
    def test_density(self):
        rows = run_serial(density_spec(sizes=(50, 100), trials=2, field_size=200.0))
        assert [r["nodes"] for r in rows] == [50, 100]
        for row in rows:
            assert set(row) == {
                "nodes",
                "mean_degree",
                "isolated",
                "lcc_fraction",
                "expected_degree",
            }
            assert 0 < row["lcc_fraction"] <= 1
            assert row["isolated"] >= 0
            assert row["expected_degree"] == round(
                (row["nodes"] - 1) * math.pi * 50.0**2 / 200.0**2, 2
            )
        assert rows[1]["mean_degree"] > rows[0]["mean_degree"]
        # The same node count on the default 400 m field is four times sparser.
        wide = run_serial(density_spec(sizes=(100,), trials=2))
        assert wide[0]["expected_degree"] < rows[1]["expected_degree"]
        assert wide[0]["mean_degree"] < rows[1]["mean_degree"]

    def test_coverage(self):
        rows = run_serial(coverage_spec(sizes=(100,), trials=1))
        assert 0 <= rows[0]["participation"] <= 1

    def test_privacy(self):
        rows = run_serial(
            privacy_spec(cluster_sizes=(3,), px_grid=(0.1,), num_nodes=100, draws=20)
        )
        assert rows[0]["m"] == 3
        assert 0 <= rows[0]["sim_p_disclose"] <= 1

    def test_overhead(self):
        rows = run_serial(overhead_spec(sizes=(100,), cluster_sizes=(3,), trials=1))
        assert rows[0]["icpda_m3_bytes"] > rows[0]["tag_bytes"]

    def test_accuracy(self):
        rows = run_serial(accuracy_spec(sizes=(100,), trials=1))
        assert rows[0]["tag_accuracy"] > 0.5

    def test_aggregate_comparison(self):
        rows = run_serial(
            aggregate_comparison_spec(num_nodes=100, aggregates=("sum", "count"))
        )
        assert {row["aggregate"] for row in rows} == {"sum", "count"}

    def test_threshold(self):
        experiment = run_threshold_experiment(num_nodes=100, trials=2)
        assert len(experiment["gaps"]) == 2
        assert recommend_th(experiment) >= 0

    def test_collusion_boundary(self):
        rows = run_serial(collusion_spec(num_nodes=120, trials=1))
        assert [row["colluding_fraction"] for row in rows] == [0.0, 0.5, 1.0]

    def test_latency(self):
        rows = run_serial(latency_spec(sizes=(100,)))
        assert rows[0]["icpda_round_s"] > rows[0]["tag_epoch_s"]

    def test_witness_ablation(self):
        rows = run_serial(witness_spec(fractions=(1.0,), num_nodes=120, trials=1))
        assert rows[0]["witness_fraction"] == 1.0

    def test_cluster_size_ablation(self):
        rows = run_serial(cluster_size_spec(cluster_sizes=(3,), num_nodes=120))
        assert rows[0]["m"] == 3

    def test_eg_keymgmt(self):
        rows = run_serial(eg_spec(ring_sizes=(40,), pool_size=100, num_nodes=100))
        assert rows[0]["connect_prob"] > 0.9
