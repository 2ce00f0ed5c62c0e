"""Unit tests for the CI benchmark gate's scenario comparison.

``benchmarks/`` is a script directory, not an installed package, so the
module under test is loaded straight from its file path. The focus is
the ``compare`` gate: it reads yardsticks, never seconds, and the
scenario sets must match in *both* directions — a scenario missing from
the fresh run (timed path silently dropped) and a scenario missing from
the baseline (new scenario whose perf is ungated) must both fail, not
just the first.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

_CHECK_BENCH = (
    pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "check_bench.py"
)


@pytest.fixture(scope="module")
def check_bench():
    spec = importlib.util.spec_from_file_location("_check_bench", _CHECK_BENCH)
    module = importlib.util.module_from_spec(spec)
    # Registered so dataclass/typing introspection inside the module
    # (if any) can resolve it; removed afterwards to keep sys.modules
    # clean for other tests.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


#: The gate's noise floor, in yardsticks, as ``check_bench.py`` defaults it.
SLACK = 60.0


def _entry(yardsticks, seconds=0.1):
    return {"best_yardsticks": yardsticks, "best_seconds": seconds}


class TestCompareSymmetry:
    def test_identical_sets_pass(self, check_bench, capsys):
        scenarios = {"a": _entry(100.0), "b": _entry(200.0)}
        assert check_bench.compare(scenarios, scenarios, 2.0, SLACK) == 0

    def test_scenario_missing_from_fresh_fails(self, check_bench, capsys):
        baseline = {"a": _entry(100.0), "b": _entry(200.0)}
        fresh = {"a": _entry(100.0)}
        assert check_bench.compare(baseline, fresh, 2.0, SLACK) == 1
        assert "missing from fresh run" in capsys.readouterr().out

    def test_scenario_missing_from_baseline_fails(self, check_bench, capsys):
        """The gate hole: before the fix, a scenario added to the quick
        set without a baseline entry was silently un-gated."""
        baseline = {"a": _entry(100.0)}
        fresh = {"a": _entry(100.0), "new_scenario": _entry(9900.0)}
        assert check_bench.compare(baseline, fresh, 2.0, SLACK) == 1
        assert "missing from baseline" in capsys.readouterr().out

    def test_disjoint_sets_fail_per_scenario(self, check_bench, capsys):
        baseline = {"a": _entry(100.0), "b": _entry(200.0)}
        fresh = {"c": _entry(100.0), "d": _entry(200.0)}
        assert check_bench.compare(baseline, fresh, 2.0, SLACK) == 4


class TestCompareThresholds:
    def test_these_bars_use_the_default_slack(self, check_bench):
        assert check_bench.MIN_SLACK_YARDSTICKS == SLACK

    def test_regression_needs_ratio_and_slack(self, check_bench, capsys):
        # 10x slower but still under the absolute slack: noise, not a
        # regression (sub-10ms scenarios flap on pure ratios).
        baseline = {"a": _entry(5.0)}
        fresh = {"a": _entry(50.0)}
        assert check_bench.compare(baseline, fresh, 2.0, SLACK) == 0

    def test_planted_3x_slowdown_fails(self, check_bench, capsys):
        baseline = {"a": _entry(120.0, seconds=0.08)}
        fresh = {"a": _entry(360.0, seconds=0.08)}
        assert check_bench.compare(baseline, fresh, 2.0, SLACK) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_uniform_host_slowdown_passes(self, check_bench, capsys):
        """A host 2.5x slower stretches every row's seconds 2.5x and
        cuts the yardsticks it runs per second by as much, so the rows'
        yardsticks, the only thing the gate reads, stay put."""
        baseline = {"a": _entry(120.0, 0.08), "b": _entry(2000.0, 1.5)}
        fresh = {"a": _entry(120.0, 0.2), "b": _entry(2000.0, 3.75)}
        assert check_bench.compare(baseline, fresh, 2.0, SLACK) == 0
        assert "REGRESSED" not in capsys.readouterr().out

    def test_faster_is_fine(self, check_bench, capsys):
        baseline = {"a": _entry(1000.0)}
        fresh = {"a": _entry(600.0)}
        assert check_bench.compare(baseline, fresh, 2.0, SLACK) == 0

    def test_row_over_2x_faster_in_yardsticks_fails_as_stale(
        self, check_bench, capsys
    ):
        # Under baseline / ratio, a 2x slowdown of the current code
        # would still pass: the baseline must be re-recorded. Seconds
        # do not count: here they read slower.
        baseline = {"a": _entry(400.0, seconds=0.1)}
        fresh = {"a": _entry(150.0, seconds=0.3)}
        assert check_bench.compare(baseline, fresh, 2.0, SLACK) == 1
        out = capsys.readouterr().out
        assert "STALE" in out and "FAIL a: stale baseline" in out

    def test_stale_needs_ratio_and_slack(self, check_bench, capsys):
        # 10x faster but within the absolute slack: noise, not staleness.
        baseline = {"a": _entry(50.0)}
        fresh = {"a": _entry(5.0)}
        assert check_bench.compare(baseline, fresh, 2.0, SLACK) == 0

    def test_baseline_without_yardsticks_fails_loudly(self, check_bench):
        baseline = {"a": {"best_seconds": 0.1}}
        fresh = {"a": _entry(100.0)}
        with pytest.raises(SystemExit, match="a has no best_yardsticks"):
            check_bench.compare(baseline, fresh, 2.0, SLACK)

    def test_committed_bulk_baselines_are_not_stale_by_far(self, check_bench):
        # The re-recorded rows sit well inside the ratio; a baseline
        # several times slower than the code it gates has no teeth.
        rows = check_bench.check_e2e_report(check_bench.QUICK_BASELINE)
        assert rows["icpda_mega_fluid_bulk"]["best_seconds"] < 20.0
        assert rows["icpda_huge_fluid_bulk"]["best_seconds"] < 3.0
        assert rows["icpda_mega_fluid_bulk"]["best_yardsticks"] < 30_000.0
        assert rows["icpda_huge_fluid_bulk"]["best_yardsticks"] < 4_500.0
        assert rows["icpda_mega_fluid_bulk"]["max_peak_rss_mb"] < 1000.0
        assert rows["icpda_huge_fluid_bulk"]["max_peak_rss_mb"] < 300.0


class TestPeakRssCeiling:
    """Baseline entries may carry ``max_peak_rss_mb``; the fresh run's
    ``peak_rss_mb`` must stay under it (memory blow-up tripwire for the
    vectorized bulk transport's largest scenarios)."""

    def test_under_ceiling_passes(self, check_bench, capsys):
        baseline = {"a": {**_entry(1000.0), "max_peak_rss_mb": 1000.0}}
        fresh = {"a": {**_entry(1000.0), "peak_rss_mb": 700.0}}
        assert check_bench.compare(baseline, fresh, 2.0, SLACK) == 0

    def test_over_ceiling_fails(self, check_bench, capsys):
        baseline = {"a": {**_entry(1000.0), "max_peak_rss_mb": 1000.0}}
        fresh = {"a": {**_entry(1000.0), "peak_rss_mb": 1500.0}}
        assert check_bench.compare(baseline, fresh, 2.0, SLACK) == 1
        assert "exceeds" in capsys.readouterr().out

    def test_missing_fresh_rss_fails(self, check_bench, capsys):
        """A ceiling with no fresh measurement means the field was
        dropped from the bench runner — fail, don't shrug."""
        baseline = {"a": {**_entry(1000.0), "max_peak_rss_mb": 1000.0}}
        fresh = {"a": _entry(1000.0)}
        assert check_bench.compare(baseline, fresh, 2.0, SLACK) == 1
        assert "no peak_rss_mb" in capsys.readouterr().out

    def test_no_ceiling_ignores_rss(self, check_bench, capsys):
        baseline = {"a": _entry(1000.0)}
        fresh = {"a": {**_entry(1000.0), "peak_rss_mb": 99999.0}}
        assert check_bench.compare(baseline, fresh, 2.0, SLACK) == 0


def _counted(transport, **counters):
    entry = {
        "best_seconds": 0.1,
        "transport": transport,
        "transmissions": 100,
        "deliveries": 900,
        "events_fired": 1200,
    }
    entry.update(counters)
    return entry


class TestSeededCounters:
    """A fresh ``des``, per-frame ``fluid`` or ``fluid-bulk`` quick row
    must reproduce the baseline's seeded transmissions, deliveries and
    events exactly."""

    def test_identical_counters_pass(self, check_bench, capsys):
        scenarios = {"a": _counted("des"), "b": _counted("fluid")}
        assert check_bench.compare_counters(scenarios, scenarios) == 0

    @pytest.mark.parametrize("key", ["transmissions", "deliveries", "events_fired"])
    def test_any_drifted_des_counter_fails(self, check_bench, capsys, key):
        baseline = {"a": _counted("des")}
        fresh = {"a": _counted("des", **{key: 1})}
        assert check_bench.compare_counters(baseline, fresh) == 1
        assert key in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["transmissions", "deliveries", "events_fired"])
    def test_any_drifted_fluid_counter_fails(self, check_bench, capsys, key):
        baseline = {"a": _counted("fluid")}
        fresh = {"a": _counted("fluid", **{key: 1})}
        assert check_bench.compare_counters(baseline, fresh) == 1
        assert key in capsys.readouterr().out

    def test_drifted_bulk_counter_fails(self, check_bench, capsys):
        baseline = {"b": _counted("fluid-bulk")}
        fresh = {"b": _counted("fluid-bulk", events_fired=1)}
        assert check_bench.compare_counters(baseline, fresh) == 1
        assert "events_fired 1200 -> 1" in capsys.readouterr().out

    def test_committed_quick_baseline_pins_every_des_row(self, check_bench):
        baseline = check_bench.check_e2e_report(check_bench.QUICK_BASELINE)
        des = {name for name, e in baseline.items() if e["transport"] == "des"}
        assert len(des) >= 5
        for name in des:
            for key in check_bench.SEEDED_COUNTERS:
                assert baseline[name][key] > 0

    def test_committed_quick_baseline_pins_the_fluid_rows(self, check_bench):
        baseline = check_bench.check_e2e_report(check_bench.QUICK_BASELINE)
        fluid = {
            name: tuple(entry[key] for key in check_bench.SEEDED_COUNTERS)
            for name, entry in baseline.items()
            if entry["transport"] in check_bench.PINNED_TRANSPORTS
            and entry["transport"] != "des"
        }
        assert fluid == {
            "icpda_dense_small_fluid": (1868, 7520, 3107),
            "storm_dense_small_fluid": (4800, 4798, 9600),
            "icpda_huge_fluid": (356133, 1423219, 376862),
            "icpda_huge_fluid_bulk": (358150, 1423422, 378876),
            "icpda_mega_fluid_bulk": (1787388, 7183659, 1888683),
        }


def _service_entry(**overrides):
    entry = {
        "num_nodes": 120,
        "seed": 21,
        "clients": 8,
        "queries_per_client": 4,
        "best_seconds": 0.4,
        "qps": 80.0,
        "p50_s": 0.1,
        "p95_s": 0.12,
        "p99_s": 0.13,
        "served": 32,
        "epochs": 3,
        "peak_rss_mb": 60.0,
    }
    entry.update(overrides)
    return entry


class TestCheckServiceReport:
    """Structural validation of ``BENCH_service.json`` — the fields the
    quick-gate comparison and the CI smoke job rely on."""

    def _write(self, tmp_path, scenarios, schema="bench-service/1", scale="full"):
        path = tmp_path / "BENCH_service.json"
        path.write_text(
            json.dumps({"schema": schema, "scale": scale, "scenarios": scenarios})
        )
        return path

    def test_valid_report_returns_scenarios(self, check_bench, tmp_path):
        path = self._write(tmp_path, {"s": _service_entry()})
        scenarios = check_bench.check_service_report(path)
        assert set(scenarios) == {"s"}

    def test_wrong_schema_rejected(self, check_bench, tmp_path):
        path = self._write(tmp_path, {"s": _service_entry()}, schema="bench-e2e/1")
        with pytest.raises(SystemExit, match="schema"):
            check_bench.check_service_report(path)

    def test_missing_field_rejected(self, check_bench, tmp_path):
        entry = _service_entry()
        del entry["p95_s"]
        path = self._write(tmp_path, {"s": entry})
        with pytest.raises(SystemExit, match="p95_s"):
            check_bench.check_service_report(path)

    def test_unordered_percentiles_rejected(self, check_bench, tmp_path):
        path = self._write(
            tmp_path, {"s": _service_entry(p50_s=0.2, p95_s=0.1)}
        )
        with pytest.raises(SystemExit, match="percentiles"):
            check_bench.check_service_report(path)

    def test_single_epoch_rejected(self, check_bench, tmp_path):
        """One epoch means the run never exercised the long-lived path
        the service mode exists for — the report must not pass."""
        path = self._write(tmp_path, {"s": _service_entry(epochs=1)})
        with pytest.raises(SystemExit, match="epochs"):
            check_bench.check_service_report(path)

    def test_quick_row_needs_yardsticks(self, check_bench, tmp_path):
        """The gate compares quick rows in yardsticks, so a quick report
        without them (a runner that stopped recording them) fails."""
        path = self._write(tmp_path, {"s": _service_entry()}, scale="quick")
        with pytest.raises(SystemExit, match="best_yardsticks"):
            check_bench.check_service_report(path)
        path = self._write(
            tmp_path, {"s": _service_entry(best_yardsticks=300.0)}, scale="quick"
        )
        assert set(check_bench.check_service_report(path)) == {"s"}

    def test_nan_rejected(self, check_bench, tmp_path):
        path = tmp_path / "BENCH_service.json"
        path.write_text(
            '{"schema": "bench-service/1", "scenarios": {"s": {"qps": NaN}}}'
        )
        with pytest.raises(SystemExit):
            check_bench.check_service_report(path)


def test_quick_e2e_row_needs_yardsticks(check_bench, tmp_path):
    entry = {
        "protocol": "icpda",
        "num_nodes": 120,
        "mean_degree": 12.2,
        "seed": 12,
        "best_seconds": 0.08,
        "transmissions": 100,
        "events_fired": 1200,
    }
    path = tmp_path / "BENCH_e2e_quick.json"
    report = {"schema": "bench-e2e/1", "scale": "quick", "scenarios": {"s": entry}}
    path.write_text(json.dumps(report))
    with pytest.raises(SystemExit, match="best_yardsticks"):
        check_bench.check_e2e_report(path)
    entry["best_yardsticks"] = 120.0
    path.write_text(json.dumps(report))
    assert set(check_bench.check_e2e_report(path)) == {"s"}
