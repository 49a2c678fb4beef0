"""Tests for the content-hashed on-disk trace/event-log cache."""

import dataclasses

import pytest

from repro.gpu.config import VOLTA
from repro.gpu.simulator import simulate_l2
from repro.harness.diskcache import DiskCache, resolve_cache_dir
from repro.harness.runner import ExperimentContext
from repro.workloads.benchmarks import build_trace


@pytest.fixture
def cache(tmp_path):
    return DiskCache(str(tmp_path / "cache"))


class TestResolution:
    def test_explicit_path_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/elsewhere")
        assert resolve_cache_dir("/explicit") == "/explicit"

    def test_env_var_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/from-env")
        assert resolve_cache_dir(None) == "/from-env"

    def test_default_is_dot_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache_dir(None) == ".cache"

    def test_empty_string_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert resolve_cache_dir(None) is None
        assert resolve_cache_dir("") is None
        assert DiskCache.from_spec("") is None


class TestTraceCache:
    def test_miss_then_hit_roundtrip(self, cache):
        trace = build_trace("bfs", length=60, seed=3)
        key = DiskCache.trace_key("bfs", 60, 3)
        assert cache.load_trace(key) is None
        cache.store_trace(key, trace)
        recovered = cache.load_trace(key)
        assert recovered is not None
        assert recovered.name == trace.name
        assert len(recovered) == len(trace)
        assert cache.misses == 1 and cache.hits == 1 and cache.stores == 1

    def test_key_depends_on_every_input(self):
        base = DiskCache.trace_key("bfs", 60, 3)
        assert DiskCache.trace_key("lbm", 60, 3) != base
        assert DiskCache.trace_key("bfs", 61, 3) != base
        assert DiskCache.trace_key("bfs", 60, 4) != base

    def test_corrupt_entry_degrades_to_miss(self, cache):
        trace = build_trace("bfs", length=60, seed=3)
        key = DiskCache.trace_key("bfs", 60, 3)
        cache.store_trace(key, trace)
        path = cache._path("trace", key)
        path.write_text("#repro-trace v1 garbage\nnot a record\n")
        assert cache.load_trace(key) is None
        assert not path.exists()  # corrupt artifact evicted


class TestCorruption:
    """Every mangled entry is a counted miss — never a parse error."""

    def _stored(self, cache):
        trace = build_trace("bfs", length=60, seed=3)
        key = DiskCache.trace_key("bfs", 60, 3)
        cache.store_trace(key, trace)
        return key, cache._path("trace", key)

    def test_entries_carry_checksum_footer(self, cache):
        _, path = self._stored(cache)
        lines = path.read_text().splitlines()
        assert lines[-1].startswith("#repro-checksum sha256=")

    def test_truncated_payload(self, cache):
        key, path = self._stored(cache)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert cache.load_trace(key) is None
        assert cache.corrupt_entries == 1
        assert not path.exists()

    def test_bit_flipped_payload(self, cache):
        key, path = self._stored(cache)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 3] ^= 0x10
        path.write_bytes(bytes(raw))
        assert cache.load_trace(key) is None
        assert cache.corrupt_entries == 1

    def test_wrong_version_header(self, cache):
        # A well-formed entry whose payload fails format validation:
        # checksum passes, loads_trace rejects. Still a counted miss.
        key = DiskCache.trace_key("bfs", 60, 3)
        path = cache._path("trace", key)
        cache._write_atomic(path, "#repro-vNEXT name=t future-field=1\n")
        assert cache.load_trace(key) is None
        assert cache.corrupt_entries == 1

    def test_missing_footer(self, cache):
        key, path = self._stored(cache)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        assert cache.load_trace(key) is None
        assert cache.corrupt_entries == 1

    def test_event_log_corruption_counted(self, cache):
        from repro.gpu.simulator import simulate_l2 as sim

        trace = build_trace("lbm", length=40, seed=2)
        log = sim(trace, VOLTA)
        key = DiskCache.event_log_key(trace, VOLTA)
        cache.store_event_log(key, log)
        path = cache._path("events", key)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        assert cache.load_event_log(key) is None
        assert cache.corrupt_entries == 1


class TestEventLogCache:
    def test_roundtrip_preserves_replay_inputs(self, cache):
        trace = build_trace("lbm", length=80, seed=5)
        log = simulate_l2(trace, VOLTA)
        key = DiskCache.event_log_key(trace, VOLTA)
        assert cache.load_event_log(key) is None
        cache.store_event_log(key, log)
        recovered = cache.load_event_log(key)
        assert recovered is not None
        assert recovered.trace_name == log.trace_name
        assert recovered.memory_intensity == log.memory_intensity
        assert recovered.instructions == log.instructions
        assert recovered.counter_warmup_passes == log.counter_warmup_passes
        assert recovered.fill_sectors == log.fill_sectors
        assert recovered.writeback_sectors == log.writeback_sectors
        assert recovered.l2_stats == log.l2_stats
        assert list(recovered.events.iter_events()) == list(
            log.events.iter_events()
        )

    def test_key_tracks_trace_content_and_config(self):
        trace_a = build_trace("bfs", length=60, seed=3)
        trace_b = build_trace("bfs", length=60, seed=4)
        key = DiskCache.event_log_key(trace_a, VOLTA)
        assert DiskCache.event_log_key(trace_b, VOLTA) != key
        smaller_l2 = dataclasses.replace(
            VOLTA,
            l2=dataclasses.replace(VOLTA.l2, size_bytes=VOLTA.l2.size_bytes // 2),
        )
        assert DiskCache.event_log_key(trace_a, smaller_l2) != key


class TestContextIntegration:
    def test_second_context_skips_simulation(self, tmp_path):
        root = str(tmp_path / "ctx-cache")
        first = ExperimentContext(trace_length=200, cache_dir=root)
        cold = first.run("bfs", "pssm")
        assert first.disk_cache.stores == 2  # trace + event log
        second = ExperimentContext(trace_length=200, cache_dir=root)
        warm = second.run("bfs", "pssm")
        assert second.disk_cache.hits == 2
        assert second.disk_cache.stores == 0
        assert warm == cold

    def test_disabled_cache_still_runs(self):
        ctx = ExperimentContext(trace_length=150, cache_dir="")
        assert ctx.disk_cache is None
        result = ctx.run("bfs", "nosec")
        assert result.total_bytes > 0


def seed_entry(cache, name, size=64, age_s=0.0):
    """Create one artifact file by hand, optionally backdated."""
    import os
    import time as _time

    cache.root.mkdir(parents=True, exist_ok=True)
    path = cache.root / f"{name}.txt"
    path.write_text("x" * size, encoding="utf-8")
    if age_s:
        past = _time.time() - age_s
        os.utime(path, (past, past))
    return path


class TestEntriesAndGc:
    def test_entries_list_oldest_mtime_first(self, cache):
        newer = seed_entry(cache, "newer", age_s=10.0)
        oldest = seed_entry(cache, "oldest", age_s=100.0)
        fresh = seed_entry(cache, "fresh")
        assert cache.entries() == [oldest, newer, fresh]
        assert cache.total_bytes() == 3 * 64

    def test_gc_evicts_lru_down_to_budget(self, cache):
        seed_entry(cache, "a", size=100, age_s=300.0)
        seed_entry(cache, "b", size=100, age_s=200.0)
        keep = seed_entry(cache, "c", size=100, age_s=100.0)
        result = cache.gc(max_bytes=100)
        assert (result.examined, result.evicted) == (3, 2)
        assert result.freed_bytes == 200
        assert result.remaining_bytes == 100
        assert cache.entries() == [keep]

    def test_gc_dry_run_deletes_nothing(self, cache):
        seed_entry(cache, "a", size=100, age_s=10.0)
        result = cache.gc(max_bytes=0, dry_run=True)
        assert result.dry_run and result.evicted == 1
        assert len(cache.entries()) == 1

    def test_gc_never_evicts_pinned_entries(self, cache):
        pinned = seed_entry(cache, "inflight", size=100, age_s=300.0)
        seed_entry(cache, "old", size=100, age_s=200.0)
        cache.pin("run-abc-w0", pinned.name)
        result = cache.gc(max_bytes=0)
        assert result.pinned_kept == 1
        assert result.evicted == 1
        assert cache.entries() == [pinned]

    def test_gc_rejects_negative_budget(self, cache):
        with pytest.raises(ValueError):
            cache.gc(max_bytes=-1)

    def test_verified_read_refreshes_lru_position(self, cache):
        # A hit bumps the entry's mtime, so recently *used* -- not
        # recently written -- artifacts survive a tight GC.
        import os
        import time as _time

        trace = build_trace("bfs", length=50, seed=1)
        cache.store_trace(DiskCache.trace_key("bfs", 50, 1), trace)
        cache.store_trace(DiskCache.trace_key("bfs", 50, 2), trace)
        hot, cold = cache.entries()
        for path in (hot, cold):
            past = _time.time() - 500.0
            os.utime(path, (past, past))
        key_of_hot = hot.name[len("trace-"):-len(".txt")]
        assert cache.load_trace(key_of_hot) is not None
        sizes = {p: s for p, s in cache._entry_sizes.items()}
        cache.gc(max_bytes=sizes[hot])
        assert cache.entries() == [hot]


class TestPins:
    def test_active_pin_records_touched_artifacts(self, cache):
        from repro.harness import diskcache as mod

        trace = build_trace("bfs", length=50, seed=3)
        key = DiskCache.trace_key("bfs", 50, 3)
        mod.activate_pin("run-xyz-w0")
        try:
            cache.store_trace(key, trace)
            assert cache.load_trace(key) is not None
        finally:
            mod.deactivate_pin()
        assert mod.active_pin() is None
        (entry,) = cache.entries()
        assert cache.pinned_files() == {entry.name}
        assert cache.pin_ids() == ["run-xyz-w0"]
        survivors = cache.gc(max_bytes=0)
        assert survivors.evicted == 0 and survivors.pinned_kept == 1

    def test_pin_id_must_be_a_bare_name(self):
        from repro.harness.diskcache import activate_pin

        with pytest.raises(ValueError):
            activate_pin("../escape")

    def test_pin_is_idempotent_and_sorted(self, cache):
        cache.pin("p", "b.txt")
        cache.pin("p", "a.txt")
        cache.pin("p", "b.txt")
        import json

        payload = json.loads(
            (cache.root / "pins" / "p.json").read_text(encoding="utf-8")
        )
        assert payload["entries"] == ["a.txt", "b.txt"]

    def test_clear_pins_honors_prefix(self, cache):
        cache.pin("run-a-w0", "x.txt")
        cache.pin("run-b-w0", "y.txt")
        assert cache.clear_pins("run-a-") == 1
        assert cache.pin_ids() == ["run-b-w0"]
        assert cache.clear_pins() == 1
        assert cache.pinned_files() == set()


class TestPersistedCounters:
    def test_flush_merges_across_instances(self, cache):
        trace = build_trace("bfs", length=50, seed=4)
        key = DiskCache.trace_key("bfs", 50, 4)
        assert cache.load_trace(key) is None  # miss
        cache.store_trace(key, trace)
        assert cache.load_trace(key) is not None  # hit
        cache.flush_counters()
        cache.flush_counters()  # idempotent: no unflushed deltas left

        other = DiskCache(str(cache.root))
        assert other.load_trace(key) is not None
        other.flush_counters()
        persisted = DiskCache(str(cache.root)).read_persisted_counters()
        assert persisted["hits"] == 2
        assert persisted["misses"] == 1
        assert persisted["stores"] == 1

    def test_stats_merge_persisted_and_session(self, cache):
        trace = build_trace("bfs", length=50, seed=5)
        key = DiskCache.trace_key("bfs", 50, 5)
        cache.store_trace(key, trace)
        cache.flush_counters()
        other = DiskCache(str(cache.root))
        assert other.load_trace(key) is not None  # unflushed session hit
        stats = other.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        assert stats["counters"]["stores"] == 1
        assert stats["counters"]["hits"] == 1
        assert stats["pins"] == []
