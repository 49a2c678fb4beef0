"""Tests for the metrics registry instruments."""

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sampler,
)


class TestCounter:
    def test_monotonic(self):
        c = Counter("x")
        c.inc()
        c.inc(5)
        assert c.value == 6
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_as_dict(self):
        c = Counter("x")
        c.inc(3)
        assert c.as_dict() == {"type": "counter", "value": 3}


class TestGauge:
    def test_last_value_wins(self):
        g = Gauge("x")
        g.set(1.5)
        g.set(0.25)
        assert g.value == 0.25


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        h = Histogram("depth", bounds=(0, 1, 2, 4))
        # Exactly on a bound -> that bucket; between bounds -> next one up.
        for value, bucket in [(0, 0), (1, 1), (2, 2), (3, 3), (4, 3)]:
            before = list(h.counts)
            h.record(value)
            assert h.counts[bucket] == before[bucket] + 1, value

    def test_overflow_bucket(self):
        h = Histogram("depth", bounds=(0, 1))
        h.record(99)
        assert h.counts[-1] == 1

    def test_summary_stats(self):
        h = Histogram("depth", bounds=(0, 1, 2))
        for v in (0, 1, 2):
            h.record(v)
        assert h.count == 3
        assert h.mean == pytest.approx(1.0)
        assert h.min == 0 and h.max == 2

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=())
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(1, 1))
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(2, 1))

    def test_as_dict_roundtrips_through_json(self):
        h = Histogram("depth", bounds=(0, 1))
        h.record(1)
        assert json.loads(json.dumps(h.as_dict()))["count"] == 1


class TestSampler:
    def test_records_in_order(self):
        s = Sampler("t", window=8)
        for i in range(5):
            s.record(i * 10, float(i))
        assert s.positions == [0, 10, 20, 30, 40]
        assert s.values == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_windowing_compacts_instead_of_dropping(self):
        s = Sampler("t", window=8, agg="sum")
        for i in range(100):
            s.record(i, 1.0)
        # Bounded size, full-run coverage, total preserved under sum agg.
        assert len(s) <= 8 + 1
        assert s.positions[-1] == 99
        assert sum(s.values) == pytest.approx(100.0)
        assert s.recorded == 100

    def test_mean_agg_preserves_level(self):
        s = Sampler("t", window=8, agg="mean")
        for i in range(64):
            s.record(i, 0.5)
        assert all(v == pytest.approx(0.5) for v in s.values)

    def test_positions_stay_sorted_after_compaction(self):
        s = Sampler("t", window=8)
        for i in range(1000):
            s.record(i, float(i % 7))
        assert s.positions == sorted(s.positions)

    def test_validation(self):
        with pytest.raises(ValueError):
            Sampler("t", window=2)
        with pytest.raises(ValueError):
            Sampler("t", agg="median")


class TestSamplerCompactionEdges:
    def test_empty_sampler_has_no_compactions(self):
        s = Sampler("t", window=8)
        assert s.compactions == 0
        assert s.values == []
        assert s.as_dict()["compactions"] == 0

    def test_single_point_never_compacts(self):
        s = Sampler("t", window=8)
        s.record(0, 1.0)
        assert s.compactions == 0
        assert s.values == [1.0]

    def test_exactly_full_window_does_not_compact(self):
        s = Sampler("t", window=8)
        for i in range(8):
            s.record(i, float(i))
        assert s.compactions == 0
        assert len(s) == 8

    def test_one_past_full_triggers_exactly_one_compaction(self):
        s = Sampler("t", window=8, agg="sum")
        for i in range(9):
            s.record(i, 1.0)
        assert s.compactions == 1
        # 9 points pair-merge to 4 merged + 1 odd trailing point.
        assert len(s) == 5
        assert sum(s.values) == pytest.approx(9.0)

    def test_merged_point_takes_the_later_position(self):
        # A point is recorded at the end of its window, so a merged pair
        # ends where its second point ends.
        s = Sampler("t", window=8, agg="sum")
        for i in range(1, 10):
            s.record(i, 1.0)
        assert s.compactions == 1
        assert s.positions == [2, 4, 6, 8, 9]
        assert s.values == [2.0, 2.0, 2.0, 2.0, 1.0]

    def test_compaction_count_grows_with_overflow(self):
        s = Sampler("t", window=8)
        for i in range(100):
            s.record(i, 1.0)
        assert s.compactions >= 2
        assert s.as_dict()["compactions"] == s.compactions


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.sampler("s") is reg.sampler("s")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError):
            reg.gauge("a")

    def test_as_dict_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h", bounds=(0, 1)).record(1)
        reg.sampler("s").record(0, 3.0)
        payload = json.loads(json.dumps(reg.as_dict()))
        assert set(payload) == {"c", "g", "h", "s"}
        assert payload["c"]["value"] == 2

    def test_get_and_names(self):
        reg = MetricsRegistry()
        reg.counter("z")
        reg.counter("a")
        assert reg.names() == ["a", "z"]
        assert reg.get("missing") is None
