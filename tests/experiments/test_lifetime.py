"""Smoke tests for the lifetime experiment."""

from repro.experiments.engine import run_serial
from repro.experiments.lifetime import (
    lifetime_spec,
    run_icpda_lifetime,
    run_tag_lifetime,
)


class TestLifetime:
    def test_generous_budget_survives_sweep(self):
        outcome = run_icpda_lifetime(
            num_nodes=80, capacity_j=1000.0, max_rounds=3, seed=1, field_size=220.0
        )
        assert outcome["first_death_round"] is None
        assert outcome["rounds_survived"] == 3
        assert len(outcome["trajectory"]) == 3

    def test_tiny_budget_kills_quickly(self):
        outcome = run_icpda_lifetime(
            num_nodes=80, capacity_j=0.05, max_rounds=6, seed=1, field_size=220.0
        )
        assert outcome["first_death_round"] is not None
        assert outcome["first_death_round"] <= 2

    def test_tag_outlives_icpda_at_same_budget(self):
        tag = run_tag_lifetime(
            num_nodes=80, capacity_j=0.3, max_rounds=8, seed=1, field_size=220.0
        )
        icpda = run_icpda_lifetime(
            num_nodes=80, capacity_j=0.3, max_rounds=8, seed=1,
            field_size=220.0,
        )

        def death(outcome):
            return outcome["first_death_round"] or 10**9

        assert death(tag) >= death(icpda)

    def test_summary_rows_shape(self):
        rows = run_serial(
            lifetime_spec(
                num_nodes=80, capacity_j=0.5, max_rounds=4, seed=1, field_size=220.0
            )
        )
        assert [row["scheme"] for row in rows] == [
            "tag",
            "icpda",
            "icpda+rebuild",
        ]
        for row in rows:
            assert row["rounds_survived"] >= 0
            assert row["readings_delivered"] >= 0

    def test_trajectory_alive_monotone(self):
        outcome = run_icpda_lifetime(
            num_nodes=80, capacity_j=0.2, max_rounds=8, seed=2, field_size=220.0
        )
        alive = [t["alive"] for t in outcome["trajectory"]]
        assert alive == sorted(alive, reverse=True)
