"""Unit tests for the cell-based experiment execution engine."""

import json
import time

import pytest

from repro.core.config import IcpdaConfig
from repro.errors import ReproError
from repro.experiments.engine import (
    CellSpec,
    ExperimentSpec,
    cell_key,
    collect_rows,
    derive_seed,
    execute,
    failure_rows,
    run_serial,
)


# Cell functions must be module-level so the parallel path can pickle
# them by reference.
def square_cell(params, seed, context):
    return {"i": params["i"], "sq": params["i"] ** 2, "seed": seed}


def flaky_cell(params, seed, context):
    if params["i"] == context.get("bad", 1):
        raise ValueError(f"cell {params['i']} exploded")
    return {"i": params["i"]}


def slow_cell(params, seed, context):
    time.sleep(params.get("sleep_s", 5.0))
    return {"i": params["i"]}


def counting_cell(params, seed, context):
    marker = f"{context['scratch']}/cell-{params['i']}.ran"
    with open(marker, "a") as fh:
        fh.write("x\n")
    return {"i": params["i"]}


def nan_cell(params, seed, context):
    return {"i": params["i"], "metric": float("nan")}


def _spec(cell, n, experiment="TEST", context=None, base_seed=0):
    cells = tuple(
        CellSpec({"i": i}, derive_seed(base_seed, experiment, {"i": i}))
        for i in range(n)
    )
    return ExperimentSpec(
        experiment,
        cell,
        cells,
        lambda outcomes: [o.value for o in outcomes],
        context=dict(context or {}),
    )


class TestSeedsAndKeys:
    def test_derive_seed_is_stable_and_distinct(self):
        a = derive_seed(0, "F1", {"nodes": 100, "trial": 0})
        assert a == derive_seed(0, "F1", {"nodes": 100, "trial": 0})
        assert a != derive_seed(0, "F1", {"nodes": 100, "trial": 1})
        assert a != derive_seed(1, "F1", {"nodes": 100, "trial": 0})
        assert a != derive_seed(0, "F2", {"nodes": 100, "trial": 0})

    def test_cell_key_depends_on_context(self):
        spec_a = _spec(square_cell, 1, context={"knob": 1})
        spec_b = _spec(square_cell, 1, context={"knob": 2})
        assert cell_key(spec_a, spec_a.cells[0]) != cell_key(
            spec_b, spec_b.cells[0]
        )

    def test_cell_key_depends_on_backend_selection(self):
        """The CLI lands a non-default --engine choice in the spec context
        and rewrites context configs; cached cells must not be shared
        across engines."""
        keys = set()
        for context in (
            {},
            {"engine": "batched"},
            {"config": IcpdaConfig()},
            {"config": IcpdaConfig(engine="batched"), "engine": "batched"},
        ):
            spec = _spec(square_cell, 1, context=context)
            keys.add(cell_key(spec, spec.cells[0]))
        assert len(keys) == 4


class TestSerialExecution:
    def test_outcomes_in_cell_order(self):
        spec = _spec(square_cell, 4)
        report = execute(spec)
        assert [o.params["i"] for o in report.outcomes] == [0, 1, 2, 3]
        assert report.done == 4 and report.failed == 0
        assert collect_rows(spec, report) == [o.value for o in report.outcomes]

    def test_crash_isolation_records_failure(self):
        spec = _spec(flaky_cell, 3, context={"bad": 1})
        report = execute(spec)
        assert report.done == 2 and report.failed == 1
        failed = report.outcomes[1]
        assert not failed.ok
        assert "ValueError" in failed.error
        rows = failure_rows(report)
        assert len(rows) == 1
        assert rows[0]["failed_cell"] == 1
        assert json.loads(rows[0]["cell_params"]) == {"i": 1}

    def test_run_serial_is_strict(self):
        with pytest.raises(ValueError):
            run_serial(_spec(flaky_cell, 2, context={"bad": 1}))

    def test_non_finite_values_are_canonicalized(self):
        report = execute(_spec(nan_cell, 1))
        assert report.outcomes[0].value == {"i": 0, "metric": None}

    def test_rejects_bad_jobs(self):
        with pytest.raises(ReproError):
            execute(_spec(square_cell, 1), jobs=0)

    def test_manifest_counts(self):
        spec = _spec(flaky_cell, 3, context={"bad": 2})
        manifest = execute(spec).manifest()
        assert manifest["cells_total"] == 3
        assert manifest["cells_done"] == 2
        assert manifest["cells_failed"] == 1
        assert manifest["cells_cached"] == 0


class TestTimeout:
    def test_timed_out_cell_is_retried_once_then_failed(self):
        spec = _spec(slow_cell, 1)
        start = time.perf_counter()
        report = execute(spec, timeout_s=0.2)
        elapsed = time.perf_counter() - start
        outcome = report.outcomes[0]
        assert not outcome.ok and outcome.timed_out
        assert outcome.attempts == 2
        assert elapsed < 3.0  # both attempts bounded, not the full sleep

    def test_fast_cell_unaffected_by_timeout(self):
        report = execute(_spec(square_cell, 2), timeout_s=30.0)
        assert report.failed == 0


class TestCacheAndResume:
    def test_resume_skips_cached_cells(self, tmp_path):
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        spec = _spec(counting_cell, 3, context={"scratch": str(scratch)})
        cache = tmp_path / "cache"
        first = execute(spec, cache_dir=cache)
        assert first.cached == 0
        second = execute(spec, cache_dir=cache, resume=True)
        assert second.cached == 3 and second.done == 3
        # No cell actually re-ran.
        for i in range(3):
            assert (scratch / f"cell-{i}.ran").read_text() == "x\n"
        assert [o.value for o in second.outcomes] == [
            o.value for o in first.outcomes
        ]

    def test_failures_are_not_cached(self, tmp_path):
        spec = _spec(flaky_cell, 2, context={"bad": 1})
        cache = tmp_path / "cache"
        execute(spec, cache_dir=cache)
        report = execute(spec, cache_dir=cache, resume=True)
        assert report.outcomes[0].cached
        assert not report.outcomes[1].cached  # recomputed (and fails again)
        assert report.failed == 1

    def test_version_and_param_keying(self, tmp_path):
        spec = _spec(square_cell, 1)
        other = _spec(square_cell, 1, base_seed=9)
        cache = tmp_path / "cache"
        execute(spec, cache_dir=cache)
        report = execute(other, cache_dir=cache, resume=True)
        assert report.cached == 0  # different seed -> different key

    def test_without_cache_dir_resume_is_noop(self):
        report = execute(_spec(square_cell, 2), resume=True)
        assert report.cached == 0 and report.done == 2


class TestParallelExecution:
    def test_parallel_rows_identical_to_serial(self):
        spec = _spec(square_cell, 6)
        serial = execute(spec, jobs=1)
        parallel = execute(spec, jobs=2)
        assert collect_rows(spec, serial) == collect_rows(spec, parallel)
        assert parallel.jobs == 2

    def test_parallel_crash_isolation(self):
        spec = _spec(flaky_cell, 5, context={"bad": 3})
        report = execute(spec, jobs=2)
        assert report.done == 4 and report.failed == 1
        assert not report.outcomes[3].ok

    def test_parallel_progress_covers_every_cell(self):
        lines = []
        spec = _spec(square_cell, 4)
        execute(spec, jobs=2, progress=lines.append)
        assert len(lines) == 4
        assert all("[TEST]" in line for line in lines)
