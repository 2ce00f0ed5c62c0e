"""Unit tests for phase profiling (virtual/wall totals, nesting, traces)."""

import gc
import types

from repro.sim.kernel import Simulator
from repro.sim.profiling import PhaseProfiler
from repro.sim.trace import TraceLog
from tests.trace_reads import last, records


def _traced(clock):
    """A profiler on ``clock`` plus the trace log its spans land in."""
    trace = TraceLog()
    trace.bind_clock(lambda: clock["t"])
    return PhaseProfiler(clock=lambda: clock["t"], trace=trace), trace


def _phases(trace):
    return [record.fields for record in records(trace, "profile.phase")]


def _reachable_count(root) -> int:
    """GC-tracked objects reachable from ``root``, not descending into
    functions, classes or modules (a clock lambda would otherwise pull in
    globals). Untracked leaves (numbers, strings) are skipped: whether two
    equal totals share one int object is an interpreter detail."""
    seen = {id(root)}
    stack = [root]
    opaque = (types.FunctionType, types.ModuleType, type)
    while stack:
        obj = stack.pop()
        if isinstance(obj, opaque):
            continue
        for child in gc.get_referents(obj):
            if gc.is_tracked(child) and id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return len(seen)


class TestSpans:
    def test_span_records_virtual_interval(self):
        clock = {"t": 1.0}
        profiler, trace = _traced(clock)
        with profiler.phase("build"):
            clock["t"] = 4.5
        (record,) = records(trace, "profile.phase")
        assert record.fields["phase"] == "build"
        assert record.time == 4.5  # emitted at the span's virtual end
        assert record.fields["virtual_s"] == 3.5
        assert record.fields["wall_s"] >= 0.0
        assert record.fields["depth"] == 0
        snap = profiler.snapshot()
        assert snap["build.virtual_s"] == 3.5
        assert snap["build.count"] == 1

    def test_span_recorded_even_when_body_raises(self):
        profiler, trace = _traced({"t": 0.0})
        try:
            with profiler.phase("boom"):
                raise ValueError("inside")
        except ValueError:
            pass
        assert [fields["phase"] for fields in _phases(trace)] == ["boom"]
        assert profiler.snapshot()["boom.count"] == 1
        # The stack unwound: the next phase is top level again.
        with profiler.phase("after"):
            pass
        assert _phases(trace)[-1]["phase"] == "after"
        assert _phases(trace)[-1]["depth"] == 0

    def test_snapshot_totals_accumulate(self):
        clock = {"t": 0.0}
        profiler = PhaseProfiler(clock=lambda: clock["t"])
        for _ in range(3):
            with profiler.phase("round"):
                clock["t"] += 2.0
        snap = profiler.snapshot()
        assert snap["round.count"] == 3
        assert snap["round.virtual_s"] == 6.0
        assert snap["round.wall_s"] >= 0.0

    def test_live_state_does_not_grow_with_phases(self):
        clock = {"t": 0.0}
        profiler = PhaseProfiler(clock=lambda: clock["t"])

        def one_epoch():
            with profiler.phase("round"):
                with profiler.phase("exchange"):
                    clock["t"] += 1.0

        one_epoch()
        after_one = _reachable_count(profiler)
        for _ in range(999):
            one_epoch()
        assert _reachable_count(profiler) == after_one
        assert profiler.snapshot()["round/exchange.count"] == 1000


class TestNesting:
    def test_nested_phases_get_qualified_names(self):
        clock = {"t": 0.0}
        profiler, trace = _traced(clock)
        with profiler.phase("round"):
            clock["t"] = 1.0
            with profiler.phase("exchange"):
                clock["t"] = 3.0
            with profiler.phase("report"):
                clock["t"] = 4.0
        spans = _phases(trace)
        # Inner spans close first; the outer span covers both.
        assert [fields["phase"] for fields in spans] == [
            "round/exchange",
            "round/report",
            "round",
        ]
        by_name = {fields["phase"]: fields for fields in spans}
        assert by_name["round/exchange"]["virtual_s"] == 2.0
        assert by_name["round/exchange"]["depth"] == 1
        assert by_name["round"]["virtual_s"] == 4.0
        assert by_name["round"]["depth"] == 0
        snap = profiler.snapshot()
        assert snap["round/exchange.virtual_s"] == 2.0
        assert snap["round.virtual_s"] == 4.0


class TestTraceAndRegistry:
    def test_spans_emit_trace_records(self):
        trace = TraceLog()
        profiler = PhaseProfiler(trace=trace)
        with profiler.phase("tree"):
            pass
        record = last(trace, "profile.phase")
        assert record is not None
        assert record.fields["phase"] == "tree"
        assert "wall_s" in record.fields

    def test_for_simulator_registers_phases_namespace(self):
        sim = Simulator(seed=0, trace=TraceLog(enabled=True))
        profiler = PhaseProfiler.for_simulator(sim)
        sim.schedule(2.0, lambda: None)
        with profiler.phase("run"):
            sim.run()
        snap = sim.metrics.snapshot()
        assert snap["phases.run.count"] == 1
        assert snap["phases.run.virtual_s"] == 2.0
        # The span's trace record carries the simulator's virtual time.
        assert last(sim.trace, "profile.phase").time == 2.0
