"""Tests for the hierarchical span profiler and its exports."""

import json

import pytest

from repro.obs import (
    CHROME_TRACE_SCHEMA,
    ObsConfig,
    ObsSession,
    SpanProfiler,
    chrome_trace,
    collapsed_stacks,
    hotspot_tree,
    render_hotspots,
    write_chrome_trace,
    write_collapsed,
)


class ManualClock:
    """A clock tests advance by hand for deterministic timings."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def make_profiler(**kwargs):
    wall, cpu = ManualClock(), ManualClock()
    return SpanProfiler(clock=wall, cpu_clock=cpu, **kwargs), wall, cpu


class TestNesting:
    def test_child_time_subtracts_from_parent_self(self):
        prof, wall, cpu = make_profiler()
        with prof.span("parent"):
            wall.advance(1.0)
            cpu.advance(0.5)
            with prof.span("child"):
                wall.advance(2.0)
                cpu.advance(1.0)
            wall.advance(3.0)
            cpu.advance(1.5)
        stats = prof.stats()
        parent = stats[("parent",)]
        child = stats[("parent", "child")]
        assert parent.wall_s == pytest.approx(6.0)
        assert child.wall_s == pytest.approx(2.0)
        assert parent.child_wall_s == pytest.approx(2.0)
        assert parent.self_wall_s == pytest.approx(4.0)
        assert parent.self_cpu_s == pytest.approx(2.0)

    def test_children_sum_never_exceeds_parent(self):
        prof, wall, _ = make_profiler()
        with prof.span("p"):
            for _ in range(5):
                with prof.span("c"):
                    wall.advance(0.5)
                wall.advance(0.1)
        stats = prof.stats()
        parent = stats[("p",)]
        child = stats[("p", "c")]
        assert child.wall_s <= parent.wall_s
        assert parent.self_wall_s == pytest.approx(
            parent.wall_s - child.wall_s
        )

    def test_same_name_at_different_depths_is_distinct(self):
        prof, wall, _ = make_profiler()
        with prof.span("verify"):
            wall.advance(1.0)
            with prof.span("verify"):
                wall.advance(1.0)
        stats = prof.stats()
        assert ("verify",) in stats
        assert ("verify", "verify") in stats
        assert stats[("verify",)].calls == 1
        assert stats[("verify", "verify")].calls == 1

    def test_counters_attach_to_innermost_open_span(self):
        prof, _, _ = make_profiler()
        with prof.span("outer"):
            prof.add("outer_events", 1)
            with prof.span("inner"):
                prof.add("levels", 3)
                prof.add("levels", 2)
        stats = prof.stats()
        assert stats[("outer", "inner")].counters == {"levels": 5}
        assert stats[("outer",)].counters == {"outer_events": 1}

    def test_add_outside_any_span_is_a_noop(self):
        prof, _, _ = make_profiler()
        prof.add("orphan", 7)
        with prof.span("s"):
            pass
        assert stats_counters(prof) == [{}]

    def test_exception_still_closes_span(self):
        prof, wall, _ = make_profiler()
        with pytest.raises(RuntimeError):
            with prof.span("doomed"):
                wall.advance(1.0)
                raise RuntimeError("boom")
        assert prof.open_spans() == []
        assert prof.stats()[("doomed",)].wall_s == pytest.approx(1.0)


def stats_counters(prof):
    return [st.counters for st in prof.stats().values()]


class TestIrregularLifecycles:
    def test_unclosed_span_is_reported(self):
        prof, _, _ = make_profiler()
        ctx = prof.span("leaked")
        ctx.__enter__()
        assert prof.open_spans() == ["leaked"]
        assert prof.stats() == {}

    def test_out_of_order_exit_force_closes_intervening(self):
        prof, wall, _ = make_profiler()
        outer = prof.span("outer")
        inner = prof.span("inner")
        outer.__enter__()
        inner.__enter__()
        wall.advance(1.0)
        outer.__exit__(None, None, None)  # inner never exited
        assert prof.forced_closes == 1
        assert prof.open_spans() == []
        assert set(prof.stats()) == {("outer",), ("outer", "inner")}
        # The straggler exit is tolerated, not double-counted.
        inner.__exit__(None, None, None)
        assert prof.stats()[("outer", "inner")].calls == 1

    def test_record_ring_bounds_and_counts_drops(self):
        prof, wall, _ = make_profiler(max_records=4)
        for _ in range(10):
            with prof.span("s"):
                wall.advance(0.1)
        assert len(prof) == 4
        assert prof.recorded == 10
        assert prof.dropped == 6
        # Aggregates never drop.
        assert prof.stats()[("s",)].calls == 10

    def test_max_records_validated(self):
        with pytest.raises(ValueError):
            SpanProfiler(max_records=0)


class TestRecords:
    def test_record_carries_path_timing_and_args(self):
        prof, wall, cpu = make_profiler()
        wall.advance(5.0)
        with prof.span("run", benchmark="bfs"):
            prof.add("events", 42)
            wall.advance(1.5)
            cpu.advance(1.0)
        (record,) = prof.records()
        assert record["path"] == ("run",)
        assert record["ts"] == pytest.approx(5.0)
        assert record["wall_s"] == pytest.approx(1.5)
        assert record["cpu_s"] == pytest.approx(1.0)
        assert record["args"] == {"benchmark": "bfs", "events": 42}


class TestSessionSpans:
    def test_enabled_session_phase_records_a_span(self):
        session = ObsSession(ObsConfig(enabled=True))
        with session.phase("build_trace", benchmark="bfs"):
            pass
        assert ("build_trace",) in session.profiler.stats()


class TestEvents:
    def test_event_joins_the_ring_but_not_the_aggregates(self):
        prof, wall, _ = make_profiler()
        with prof.span("replay"):
            wall.advance(1.0)
            prof.event("mem.fill", sector=3)
        assert set(prof.stats()) == {("replay",)}
        assert prof.recorded == 2
        event, span = prof.records()
        assert event["kind"] == "event"
        assert event["path"] == ("replay", "mem.fill")
        assert event["ts"] == pytest.approx(1.0)
        assert event["wall_s"] == 0.0
        assert event["args"] == {"sector": 3}
        assert span["kind"] == "span"

    def test_events_leave_hotspots_and_stacks_unchanged(self):
        plain = TestExports().build()
        noisy, wall, cpu = make_profiler()
        with noisy.span("replay"):
            with noisy.span("fill"):
                noisy.event("mem.fill")
                wall.advance(0.25)
                cpu.advance(0.2)
            noisy.event("counter.minor_overflow", partition=0)
            wall.advance(0.75)
        assert collapsed_stacks(noisy) == collapsed_stacks(plain)
        assert render_hotspots(noisy) == render_hotspots(plain)

    def test_events_share_the_ring_with_spans(self):
        prof, _, _ = make_profiler(max_records=3)
        with prof.span("early"):
            pass
        for i in range(3):
            prof.event("e", i=i)
        assert prof.dropped == 1
        assert [r["kind"] for r in prof.records()] == ["event"] * 3
        # The aggregate of the pushed-out span survives.
        assert prof.stats()[("early",)].calls == 1


class TestHotspotTree:
    def test_tree_structure_and_ordering(self):
        prof, wall, _ = make_profiler()
        with prof.span("root"):
            with prof.span("light"):
                wall.advance(1.0)
            with prof.span("heavy"):
                wall.advance(5.0)
        (root,) = hotspot_tree(prof)
        assert root.stats.name == "root"
        assert [c.stats.name for c in root.children] == ["heavy", "light"]

    def test_orphans_promote_past_unclosed_parent(self):
        prof, wall, _ = make_profiler()
        leak = prof.span("leak")
        leak.__enter__()
        with prof.span("child"):
            wall.advance(1.0)
        # "leak" never closed: ("leak", "child") has no aggregated
        # parent, so the child becomes a root instead of vanishing.
        roots = hotspot_tree(prof)
        assert [r.stats.name for r in roots] == ["child"]

    def test_render_mentions_spans_and_diagnostics(self):
        prof, wall, _ = make_profiler(max_records=2)
        outer = prof.span("outer")
        inner = prof.span("inner")
        outer.__enter__()
        inner.__enter__()
        wall.advance(1.0)
        outer.__exit__(None, None, None)
        for _ in range(5):
            with prof.span("noise"):
                wall.advance(0.1)
        leak = prof.span("open_one")
        leak.__enter__()
        text = render_hotspots(prof)
        assert "outer" in text and "inner" in text
        assert "unclosed spans: open_one" in text
        assert "force-closed out-of-order spans: 1" in text
        assert "dropped" in text

    def test_render_empty_profile(self):
        prof, _, _ = make_profiler()
        assert "(no spans recorded)" in render_hotspots(prof)


class TestExports:
    def build(self):
        prof, wall, cpu = make_profiler()
        with prof.span("replay"):
            with prof.span("fill"):
                wall.advance(0.25)
                cpu.advance(0.2)
            wall.advance(0.75)
        return prof

    def test_collapsed_stacks_self_time_microseconds(self):
        prof = self.build()
        lines = collapsed_stacks(prof)
        assert "replay;fill 250000" in lines
        assert "replay 750000" in lines

    def test_collapsed_omits_zero_self_frames(self):
        prof, wall, _ = make_profiler()
        with prof.span("shell"):  # all time inside the child
            with prof.span("work"):
                wall.advance(1.0)
        lines = collapsed_stacks(prof)
        assert lines == ["shell;work 1000000"]

    def test_chrome_trace_shape(self):
        prof = self.build()
        payload = chrome_trace(prof)
        meta = payload["metadata"]
        assert meta["schema"] == CHROME_TRACE_SCHEMA
        assert meta["recorded"] == 2
        assert meta["dropped"] == 0
        events = payload["traceEvents"]
        assert events[0]["ph"] == "M"
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 2
        fill = next(e for e in complete if e["name"] == "fill")
        assert fill["cat"] == "replay"
        assert fill["dur"] == pytest.approx(0.25 * 1e6)

    def test_chrome_trace_renders_events_as_instants(self):
        prof, wall, _ = make_profiler()
        with prof.span("replay"):
            wall.advance(0.5)
            prof.event("mem.fill", sector=7)
        events = chrome_trace(prof)["traceEvents"]
        (instant,) = [e for e in events if e["ph"] == "i"]
        assert instant["name"] == "mem.fill"
        assert instant["cat"] == "replay"
        assert instant["ts"] == pytest.approx(0.5 * 1e6)
        assert instant["args"] == {"sector": 7}
        assert "dur" not in instant

    def test_writers_are_atomic_and_report_counts(self, tmp_path):
        prof = self.build()
        chrome_path = tmp_path / "trace.json"
        collapsed_path = tmp_path / "collapsed.txt"
        n_events = write_chrome_trace(str(chrome_path), prof)
        n_stacks = write_collapsed(str(collapsed_path), prof)
        payload = json.loads(chrome_path.read_text())
        assert len(payload["traceEvents"]) == n_events == 3
        assert len(collapsed_path.read_text().splitlines()) == n_stacks == 2
