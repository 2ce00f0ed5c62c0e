"""Smoke tests for the extension experiments (F9, A5, A6)."""

from repro.experiments.compare_schemes import compare_spec
from repro.experiments.election import election_spec
from repro.experiments.engine import run_serial
from repro.experiments.fading import fading_spec


class TestSchemeComparison:
    def test_all_schemes_present(self):
        rows = run_serial(compare_spec(num_nodes=120, seed=1))
        schemes = {row["scheme"] for row in rows}
        assert schemes == {"tag", "slicing_l2", "slicing_l3", "icpda"}

    def test_tag_cheapest(self):
        rows = run_serial(compare_spec(num_nodes=120, seed=1))
        by_scheme = {row["scheme"]: row for row in rows}
        assert by_scheme["tag"]["bytes"] == min(r["bytes"] for r in rows)
        assert by_scheme["tag"]["p_disclose"] == 1.0


class TestElectionAblation:
    def test_rows_cover_modes_and_sizes(self):
        rows = run_serial(election_spec(sizes=(100,), base_seed=5))
        assert [(row["nodes"], row["mode"]) for row in rows] == [
            (100, "fixed"),
            (100, "adaptive"),
        ]


class TestFadingExperiment:
    def test_tag_monotone_degradation(self):
        rows = run_serial(
            fading_spec(fading_levels=(0.0, 0.5), num_nodes=120, seed=3)
        )
        assert rows[0]["tag_accuracy"] >= rows[1]["tag_accuracy"]
        assert rows[1]["icpda_faded_frames"] > 0

    def test_accepted_values_stay_sane(self):
        rows = run_serial(
            fading_spec(fading_levels=(0.0, 0.4), num_nodes=120, seed=3)
        )
        for row in rows:
            if row["icpda_accuracy"] is not None:
                assert 0.0 < row["icpda_accuracy"] <= 1.01
