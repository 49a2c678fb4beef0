"""Tests for the span ring's trace records, sessions and exports."""

import json

from repro.obs import (
    ObsConfig,
    ObsSession,
    SpanProfiler,
    activate,
    active,
    metrics_payload,
    write_metrics_json,
    write_trace_jsonl,
)
from repro.obs.export import trace_lines


def parsed_lines(profiler):
    return [json.loads(line) for line in trace_lines(profiler)]


class TestTracer:
    def test_emit_and_sequence(self):
        prof = SpanProfiler(max_records=16)
        prof.event("a", x=1)
        prof.event("b")
        lines = parsed_lines(prof)
        assert [e["name"] for e in lines] == ["a", "b"]
        assert [e["seq"] for e in lines] == [0, 1]
        assert [e["kind"] for e in lines] == ["event", "event"]
        assert lines[0]["attrs"] == {"x": 1}
        assert "attrs" not in lines[1]
        assert "dur" not in lines[0]

    def test_ring_overflow_drops_oldest_and_counts(self):
        prof = SpanProfiler(max_records=4)
        for i in range(10):
            prof.event("e", i=i)
        assert len(prof) == 4
        assert prof.recorded == 10
        assert prof.dropped == 6
        lines = parsed_lines(prof)
        assert [e["attrs"]["i"] for e in lines] == [6, 7, 8, 9]
        # Sequence numbers keep counting across the dropped records.
        assert [e["seq"] for e in lines] == [6, 7, 8, 9]

    def test_span_records_duration(self):
        prof = SpanProfiler()
        with prof.span("work", tag="x"):
            pass
        (line,) = parsed_lines(prof)
        assert line["kind"] == "span"
        assert line["dur"] >= 0
        assert line["attrs"] == {"tag": "x"}
        assert line["path"] == "work"

    def test_jsonl_lines_parse(self):
        prof = SpanProfiler()
        with prof.span("s"):
            prof.event("a", n=3)
        lines = parsed_lines(prof)
        assert len(lines) == 2
        for line in lines:
            assert {"seq", "ts", "name", "kind", "path"} <= set(line)
        # The event carries its nesting path; the span closes after it.
        assert [(e["name"], e["path"]) for e in lines] == [
            ("a", "s;a"), ("s", "s"),
        ]


class TestSession:
    def test_default_session_is_disabled(self):
        session = active()
        assert not session.enabled
        assert len(session.registry) == 0
        assert session.profiler.recorded == 0

    def test_activation_is_scoped(self):
        session = ObsSession(ObsConfig(enabled=True))
        before = active()
        with activate(session):
            assert active() is session
            inner = ObsSession(ObsConfig(enabled=True))
            with activate(inner):
                assert active() is inner
            assert active() is session
        assert active() is before

    def test_restored_after_exception(self):
        session = ObsSession(ObsConfig(enabled=True))
        before = active()
        try:
            with activate(session):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert active() is before

    def test_disabled_phase_collects_nothing(self):
        session = ObsSession()
        with session.phase("unit_test"):
            pass
        assert session.registry.as_dict() == {}
        assert session.profiler.stats() == {}
        assert session.profiler.recorded == 0


class TestExport:
    def test_metrics_json_schema(self, tmp_path):
        session = ObsSession(ObsConfig(enabled=True))
        session.registry.counter("hits").inc(7)
        with session.phase("unit_test"):
            pass
        path = tmp_path / "m.json"
        write_metrics_json(
            str(path), session.registry, config=session.config,
            extra={"note": "x"}, session=session,
        )
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.obs/3"
        assert payload["metrics"]["hits"]["value"] == 7
        assert payload["extra"] == {"note": "x"}
        assert payload["config"] == {
            "enabled": True,
            "interval_events": 1024,
            "trace_memory_events": False,
            "span_detail": False,
        }
        (phase,) = payload["spans"]
        assert phase["path"] == ["unit_test"]
        assert phase["calls"] == 1
        assert "tracer" not in payload["summary"]
        assert payload["summary"]["spans"]["recorded"] == 1

    def test_trace_jsonl_written(self, tmp_path):
        prof = SpanProfiler()
        prof.event("a")
        prof.event("b")
        path = tmp_path / "t.jsonl"
        assert write_trace_jsonl(str(path), prof) == 2
        lines = path.read_text().strip().splitlines()
        assert [json.loads(l)["name"] for l in lines] == ["a", "b"]

    def test_payload_without_config(self):
        session = ObsSession(ObsConfig(enabled=True))
        payload = metrics_payload(session.registry)
        assert payload["config"] is None
