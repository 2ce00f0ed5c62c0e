"""Unit tests for the cell-based experiment execution engine."""

import json

import pytest

from repro.experiments.engine import (
    CellSpec,
    ExperimentSpec,
    collect_rows,
    derive_seed,
    execute,
    failure_rows,
    run_serial,
)


def square_cell(params, seed, context):
    return {"i": params["i"], "sq": params["i"] ** 2, "seed": seed}


def flaky_cell(params, seed, context):
    if params["i"] == context.get("bad", 1):
        raise ValueError(f"cell {params['i']} exploded")
    return {"i": params["i"]}


def nan_cell(params, seed, context):
    return {"i": params["i"], "metric": float("nan")}


def mutating_cell(params, seed, context):
    seen = {"i": params["i"], "context_keys": sorted(context)}
    params["i"] = -1
    context["leaked"] = True
    return seen


def interrupted_cell(params, seed, context):
    if params["i"] == 1:
        raise KeyboardInterrupt
    return {"i": params["i"]}


def _spec(cell, n, experiment="TEST", context=None):
    cells = tuple(
        CellSpec({"i": i}, derive_seed(0, experiment, {"i": i}))
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

    def test_manifest_counts(self):
        spec = _spec(flaky_cell, 3, context={"bad": 2})
        manifest = execute(spec).manifest()
        assert manifest["cells_total"] == 3
        assert manifest["cells_done"] == 2
        assert manifest["cells_failed"] == 1
        assert not {"jobs", "timeout_s", "cells_cached"} & set(manifest)

    def test_rejects_bad_jobs(self):
        with pytest.raises(TypeError):
            execute(_spec(square_cell, 1), jobs=0)

    @pytest.mark.parametrize(
        "kwarg", [{"timeout_s": 1.0}, {"resume": True}, {"cache_dir": "cache"}]
    )
    def test_rejects_removed_parameters(self, kwarg):
        with pytest.raises(TypeError):
            execute(_spec(square_cell, 1), **kwarg)

    def test_outcome_and_report_carry_no_pool_or_cache_fields(self):
        report = execute(_spec(square_cell, 1))
        outcome = vars(report.outcomes[0])
        assert not {"timed_out", "cached", "attempts"} & set(outcome)
        assert not {"jobs", "timeout_s", "cached"} & set(vars(report))

    @pytest.mark.parametrize("bad", [0, 2, 4])
    def test_crash_anywhere_leaves_other_cells_running(self, bad):
        report = execute(_spec(flaky_cell, 5, context={"bad": bad}))
        assert [o.ok for o in report.outcomes] == [i != bad for i in range(5)]
        assert [o.value for o in report.outcomes if o.ok] == [
            {"i": i} for i in range(5) if i != bad
        ]

    def test_failed_cell_records_duration_and_no_value(self):
        report = execute(_spec(flaky_cell, 2, context={"bad": 0}))
        failed = report.outcomes[0]
        assert failed.value is None and failed.duration_s >= 0.0
        assert report.outcomes[1].duration_s >= 0.0

    def test_keyboard_interrupt_stops_the_run(self):
        lines = []
        with pytest.raises(KeyboardInterrupt):
            execute(_spec(interrupted_cell, 3), progress=lines.append)
        assert len(lines) == 1  # only the cell before the interrupt finished

    def test_cells_get_private_copies_of_params_and_context(self):
        spec = _spec(mutating_cell, 3, context={"knob": 1})
        report = execute(spec)
        assert [o.value for o in report.outcomes] == [
            {"i": i, "context_keys": ["knob"]} for i in range(3)
        ]
        assert spec.context == {"knob": 1}
        assert [dict(c.params) for c in spec.cells] == [{"i": i} for i in range(3)]
        assert [o.params for o in report.outcomes] == [{"i": i} for i in range(3)]

    def test_empty_spec_reports_nothing(self):
        lines = []
        report = execute(_spec(square_cell, 0), progress=lines.append)
        assert report.total == report.done == report.failed == 0
        assert lines == []
        assert report.manifest()["cells_total"] == 0

    def test_execute_rows_match_run_serial(self):
        spec = _spec(square_cell, 5)
        assert collect_rows(spec, execute(spec)) == run_serial(spec)

    def test_progress_covers_every_cell_in_order(self):
        lines = []
        execute(_spec(flaky_cell, 3, context={"bad": 1}), progress=lines.append)
        assert [line.split()[2] for line in lines] == ["1/3", "2/3", "3/3"]
        assert [line.split()[3] for line in lines] == ["ok", "failed", "ok"]
        assert "ValueError: cell 1 exploded" in lines[1]
