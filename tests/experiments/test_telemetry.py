"""Telemetry collection through the collector, engine, and CLI."""

import json

from repro.experiments.cli import main
from repro.experiments.engine import CellSpec, ExperimentSpec, execute
from repro.net.stack import NetworkStack
from repro.sim import telemetry
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog
from tests.conftest import make_line_deployment


def _strict(line):
    def reject(token):
        raise AssertionError(f"non-strict JSON token {token!r}")

    return json.loads(line, parse_constant=reject)


class TestCollector:
    def test_simulators_get_enabled_traces_while_active(self):
        with telemetry.collect() as collector:
            sim = Simulator(seed=1)
            assert sim.trace.enabled
            sim.schedule(1.0, lambda: sim.trace.emit("x", "tick"))
            sim.run()
        assert collector.simulators == [sim]
        assert collector.category_counts() == {"x": 1}
        # Outside the context, fresh simulators revert to disabled traces.
        assert not Simulator(seed=1).trace.enabled
        assert telemetry.active() is None

    def test_categories_whitelist_applies(self):
        with telemetry.collect(categories=["mac"]) as collector:
            sim = Simulator(seed=1)
            sim.trace.emit("mac.drop", "")
            sim.trace.emit("tree.join", "")
        assert collector.category_counts() == {"mac.drop": 1}

    def test_explicit_trace_still_adopted(self):
        with telemetry.collect() as collector:
            sim = Simulator(seed=1, trace=TraceLog(enabled=False))
            assert not sim.trace.enabled  # caller's choice wins
        assert collector.simulators == [sim]

    def test_metrics_snapshot_sums_across_simulators(self):
        with telemetry.collect() as collector:
            for seed in (1, 2):
                sim = Simulator(seed=seed)
                stack = NetworkStack(sim, make_line_deployment(3))
                stack.send(0, 1, "x", size_bytes=20)
                sim.run()
        snap = collector.metrics_snapshot()
        assert snap["counters.messages"] == 2
        assert snap["counters.bytes"] == 40

    def test_trace_lines_tag_sim_index_when_multiple(self):
        with telemetry.collect() as collector:
            for seed in (1, 2):
                sim = Simulator(seed=seed)
                sim.trace.emit("x", "")
        lines = [_strict(line) for line in collector.trace_lines()]
        assert [line["sim"] for line in lines] == [0, 1]

    def test_restored_on_error(self):
        try:
            with telemetry.collect():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert telemetry.active() is None


def _net_cell(params, seed, context):
    """A cell that sends frames, crash-stops a node, then has the dead
    node attempt more sends — dead-node TX must not enter telemetry."""
    sim = Simulator(seed=seed)
    stack = NetworkStack(sim, make_line_deployment(3))
    for _ in range(params["live_sends"]):
        stack.send(1, 0, "x", size_bytes=50)
    sim.run()
    stack.fail_node(1)
    for _ in range(4):
        stack.send(1, 0, "x", size_bytes=50)
    sim.run()
    return {"bytes": stack.counters.total_bytes}


def _net_spec(trials=2):
    cells = tuple(
        CellSpec({"live_sends": 2, "trial": trial}, seed=trial)
        for trial in range(trials)
    )
    return ExperimentSpec(
        "TNET",
        _net_cell,
        cells,
        lambda outcomes: [{"bytes": o.value["bytes"]} for o in outcomes],
    )


class TestEngineTelemetry:
    def test_outcomes_carry_telemetry_and_traces(self, tmp_path):
        report = execute(_net_spec(), telemetry={}, trace_dir=tmp_path)
        assert report.telemetry_enabled
        for outcome in report.outcomes:
            assert outcome.telemetry is not None
            assert outcome.telemetry["trace_records"] > 0
            assert outcome.trace_path is not None
            lines = (tmp_path / "TNET" / f"cell-{outcome.index:04d}.jsonl").read_text()
            for line in lines.splitlines():
                record = _strict(line)
                assert "category" in record and "time" in record

    def test_manifest_block_excludes_dead_node_tx(self, tmp_path):
        report = execute(_net_spec(), trace_dir=tmp_path)
        block = report.manifest()["telemetry"]
        assert block["cells_with_telemetry"] == 2
        # 2 cells x 2 live sends x 50 bytes; the 4 dead-node sends per
        # cell must contribute nothing.
        assert block["metrics"]["counters.bytes"] == 200
        assert block["metrics"]["counters.messages"] == 4
        assert block["trace_records"] == sum(
            block["trace_categories"].values()
        )

    def test_no_telemetry_by_default(self):
        report = execute(_net_spec())
        assert not report.telemetry_enabled
        assert "telemetry" not in report.manifest()
        assert all(o.telemetry is None for o in report.outcomes)

    def test_category_whitelist_reaches_cells(self, tmp_path):
        report = execute(_net_spec(), telemetry={"categories": ["medium.tx"]})
        categories = report.manifest()["telemetry"]["trace_categories"]
        assert categories
        assert all(cat == "medium.tx" for cat in categories)


class TestFailedCellTelemetry:
    @staticmethod
    def _spec():
        def cell(params, seed, context):
            if params["trial"] == 1:
                raise RuntimeError("cell crashed after sending")
            return _net_cell(params, seed, context)

        cells = tuple(
            CellSpec({"live_sends": 2, "trial": trial}, seed=trial)
            for trial in range(3)
        )
        return ExperimentSpec("TFAIL", cell, cells, lambda outcomes: [])

    def test_failed_cell_has_no_telemetry_or_trace_file(self, tmp_path):
        report = execute(self._spec(), trace_dir=tmp_path)
        failed = report.outcomes[1]
        assert not failed.ok
        assert failed.telemetry is None and failed.trace_path is None
        written = sorted(p.name for p in (tmp_path / "TFAIL").iterdir())
        assert written == ["cell-0000.jsonl", "cell-0002.jsonl"]
        block = report.manifest()["telemetry"]
        assert block["cells_with_telemetry"] == 2
        assert block["metrics"]["counters.bytes"] == 200

    def test_repeat_runs_give_identical_telemetry(self, tmp_path):
        first = execute(_net_spec(), trace_dir=tmp_path / "a")
        second = execute(_net_spec(), trace_dir=tmp_path / "b")
        assert [o.telemetry for o in first.outcomes] == [
            o.telemetry for o in second.outcomes
        ]
        for index in range(2):
            name = f"TNET/cell-{index:04d}.jsonl"
            assert (tmp_path / "a" / name).read_text() == (
                tmp_path / "b" / name
            ).read_text()


class TestCliTelemetry:
    def test_trace_out_writes_jsonl_and_manifest_block(self, tmp_path, capsys):
        out = tmp_path / "results"
        traces = tmp_path / "traces"
        code = main(
            [
                "run",
                "F3",
                "--quick",
                "--out",
                str(out),
                "--trace-out",
                str(traces),
            ]
        )
        assert code == 0
        trace_files = sorted((traces / "F3").glob("cell-*.jsonl"))
        assert trace_files
        for line in trace_files[0].read_text().splitlines():
            _strict(line)
        manifest = _strict((out / "f3.manifest.json").read_text())
        block = manifest["telemetry"]
        assert block["cells_with_telemetry"] == manifest["cells_total"]
        assert block["metrics"]["counters.bytes"] > 0
        assert block["metrics"]["energy.total_j"] > 0
        captured = capsys.readouterr()
        assert "telemetry:" in captured.err

    def test_trace_flag_alone_collects_without_files(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(
            ["run", "T1", "--quick", "--out", str(out), "--trace=medium"]
        )
        assert code == 0
        manifest = _strict((out / "t1.manifest.json").read_text())
        assert "telemetry" in manifest
