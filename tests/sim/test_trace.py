"""Unit tests for the trace log."""

from repro.sim.trace import TraceLog, TraceRecord
from tests.trace_reads import count, last, matches, records


class TestTraceRecord:
    def test_matches_exact_category(self):
        record = TraceRecord(time=0.0, category="mac.drop", message="")
        assert matches(record, "mac.drop")

    def test_matches_prefix(self):
        record = TraceRecord(time=0.0, category="mac.drop", message="")
        assert matches(record, "mac")

    def test_does_not_match_partial_word(self):
        record = TraceRecord(time=0.0, category="machine", message="")
        assert not matches(record, "mac")


class TestTraceLog:
    def test_disabled_log_records_nothing(self):
        log = TraceLog(enabled=False)
        log.emit("x", "hello")
        assert len(log) == 0

    def test_emit_records_time_from_clock(self):
        log = TraceLog()
        log.bind_clock(lambda: 42.0)
        log.emit("x", "hello", value=1)
        record = last(log)
        assert record.time == 42.0
        assert record.fields == {"value": 1}

    def test_category_whitelist(self):
        log = TraceLog(categories=["mac"])
        log.emit("mac.drop", "kept")
        log.emit("tree.join", "filtered")
        assert len(log) == 1
        assert last(log).category == "mac.drop"

    def test_capacity_ring(self):
        log = TraceLog(capacity=3)
        for i in range(10):
            log.emit("x", str(i))
        assert len(log) == 3
        assert [r.message for r in log] == ["7", "8", "9"]

    def test_records_filter_and_count(self):
        log = TraceLog()
        log.emit("a.one", "")
        log.emit("a.two", "")
        log.emit("b.one", "")
        assert count(log, "a") == 2
        assert len(records(log, "b")) == 1
        assert last(log, "a").category == "a.two"

    def test_last_on_empty_returns_none(self):
        log = TraceLog()
        assert last(log) is None
        assert last(log, "anything") is None


class TestCategoryCounts:
    def test_counts_exact_categories(self):
        log = TraceLog()
        log.emit("mac.drop", "")
        log.emit("mac.drop", "")
        log.emit("medium.tx", "")
        assert log.category_counts() == {"mac.drop": 2, "medium.tx": 1}

    def test_counts_survive_ring_eviction(self):
        log = TraceLog(capacity=2)
        for _ in range(5):
            log.emit("x", "")
        assert len(log) == 2
        assert log.category_counts() == {"x": 5}


class TestJsonl:
    def test_round_trip_preserves_records(self, tmp_path):
        log = TraceLog()
        log.bind_clock(lambda: 1.25)
        log.emit("medium.tx", "node %(sender)s sends %(kind)s", sender=3, kind="ack")
        log.emit("mac.drop", "dropped", node=7)
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(record.to_json() + "\n" for record in log))
        loaded = TraceLog.from_jsonl(path)
        assert len(loaded) == 2
        first, second = records(loaded)
        assert first.time == 1.25
        assert first.category == "medium.tx"
        assert first.message == "node 3 sends ack"
        assert first.fields == {"sender": 3, "kind": "ack"}
        assert second.fields == {"node": 7}
        assert loaded.category_counts() == {"medium.tx": 1, "mac.drop": 1}

    def test_lines_are_strict_json(self):
        import json

        log = TraceLog()
        log.emit("x", "inf field", value=float("inf"))
        (line,) = [record.to_json() for record in log]

        def reject(token):
            raise AssertionError(f"non-strict token {token!r}")

        data = json.loads(line, parse_constant=reject)
        assert data["fields"]["value"] is None

    def test_non_json_fields_fall_back_to_repr(self):
        import json

        log = TraceLog()
        log.emit("x", "", obj={1, 2})
        (line,) = [record.to_json() for record in log]
        data = json.loads(line)
        assert isinstance(data["fields"]["obj"], str)

    def test_from_jsonl_accepts_lines_and_skips_blanks(self):
        log = TraceLog()
        log.emit("a", "one")
        lines = [record.to_json() for record in log] + ["", "   "]
        loaded = TraceLog.from_jsonl(lines)
        assert len(loaded) == 1
        assert last(loaded).category == "a"

    def test_imported_log_starts_disabled(self):
        log = TraceLog()
        log.emit("a", "")
        loaded = TraceLog.from_jsonl([record.to_json() for record in log])
        assert not loaded.enabled
        loaded.emit("b", "")  # no-op while disabled
        assert len(loaded) == 1


class TestFastPath:
    def test_disabled_emit_is_swapped_noop(self):
        log = TraceLog(enabled=False)
        assert log.emit is TraceLog._emit_noop
        log.enabled = True
        assert log.emit.__func__ is TraceLog._emit
        log.enabled = False
        assert log.emit is TraceLog._emit_noop

    def test_lazy_template_formats_only_when_kept(self):
        log = TraceLog()
        log.emit("medium.tx", "node %(sender)s sends %(kind)s", sender=3, kind="ack")
        assert last(log).message == "node 3 sends ack"
        assert last(log).fields == {"sender": 3, "kind": "ack"}

    def test_plain_message_untouched(self):
        log = TraceLog()
        log.emit("x", "literal 100% plain", value=1)
        assert last(log).message == "literal 100% plain"

    def test_disabled_template_never_formats(self):
        log = TraceLog(enabled=False)
        # A template referencing a missing field would raise if formatted.
        log.emit("x", "boom %(missing)s")
        assert len(log) == 0

    def test_whitelist_filtered_template_never_formats(self):
        log = TraceLog(categories=["mac"])
        log.emit("tree.join", "boom %(missing)s", other=1)
        assert len(log) == 0
