"""Tests for the performance engines (PSSM, common counters, Plutus)."""

import pytest

from repro.gpu.config import VOLTA
from repro.mem.traffic import Stream, TrafficCounter
from repro.metadata.compact import DESIGN_3BIT_ADAPTIVE
from repro.metadata.layout import GranularityDesign
from repro.secure.common_counters import CommonCountersEngine
from repro.secure.engine import (
    VALUE_MAC_STATS,
    MetadataCacheConfig,
    NoSecurityEngine,
)
from repro.secure.plutus import PlutusEngine, PlutusValueMacSide
from repro.secure.pssm import PssmEngine
from repro.secure.value_cache import ValueCacheConfig

SECTORS = 1 << 20  # small partition for tests

ZEROS = bytes(32)


def make(engine_cls, **kwargs):
    traffic = TrafficCounter()
    return engine_cls(0, SECTORS, traffic, **kwargs), traffic


class TestNoSecurity:
    def test_generates_no_metadata_traffic(self):
        engine, traffic = make(NoSecurityEngine)
        for i in range(100):
            engine.on_fill_batch([i], [ZEROS])
            engine.on_writeback_batch([i], [ZEROS])
        engine.finalize()
        assert traffic.report().total_bytes == 0
        assert engine.stats.fills == 100


class TestPssm:
    def test_fill_fetches_counter_and_mac(self):
        engine, traffic = make(PssmEngine)
        engine.on_fill_batch([0], [None])
        report = traffic.report()
        assert report.bytes_by_stream[Stream.COUNTER_READ] == 128  # whole block
        assert report.bytes_by_stream[Stream.MAC_READ] == 32

    def test_cached_metadata_costs_nothing(self):
        engine, traffic = make(PssmEngine)
        engine.on_fill_batch([0], [None])
        before = traffic.report().total_bytes
        engine.on_fill_batch([1], [None])  # same counter block, same MAC sector
        assert traffic.report().total_bytes == before

    def test_writeback_advances_counter(self):
        engine, _ = make(PssmEngine)
        engine.on_writeback_batch([7], [None])
        assert engine.counters.combined(7) == 1

    def test_finalize_writes_dirty_metadata(self):
        engine, traffic = make(PssmEngine)
        engine.on_writeback_batch([7], [None])
        engine.finalize()
        report = traffic.report()
        assert report.bytes_by_stream[Stream.COUNTER_WRITE] > 0
        assert report.bytes_by_stream[Stream.MAC_WRITE] > 0

    def test_fine_granularity_fetches_less(self):
        coarse, coarse_traffic = make(PssmEngine, design=GranularityDesign.BLOCK_128)
        fine, fine_traffic = make(PssmEngine, design=GranularityDesign.ALL_32)
        # Touch widely-spaced sectors so counter blocks never share.
        for i in range(0, 100):
            coarse.on_fill_batch([i * 1024], [None])
            fine.on_fill_batch([i * 1024], [None])
        assert (
            fine_traffic.report().bytes_by_stream[Stream.COUNTER_READ]
            < coarse_traffic.report().bytes_by_stream[Stream.COUNTER_READ]
        )


class TestCommonCounters:
    def test_unwritten_region_counter_is_onchip(self):
        engine, traffic = make(CommonCountersEngine, init_written_fraction=0.0)
        engine.on_fill_batch([0], [None])
        assert engine.stats.counter_onchip_hits == 1
        assert traffic.report().bytes_by_stream[Stream.COUNTER_READ] == 0

    def test_mac_traffic_unaffected(self):
        """The design's blind spot the paper attacks."""
        engine, traffic = make(CommonCountersEngine, init_written_fraction=0.0)
        engine.on_fill_batch([0], [None])
        assert traffic.report().bytes_by_stream[Stream.MAC_READ] == 32

    def test_first_write_demotes_region_forever(self):
        engine, _ = make(CommonCountersEngine, init_written_fraction=0.0)
        engine.on_writeback_batch([0], [None])
        assert not engine.counter_is_common(0)
        # The whole 16 KiB region is demoted, not just the sector.
        assert not engine.counter_is_common(engine.region_sectors - 1)
        # The next region is untouched.
        assert engine.counter_is_common(engine.region_sectors)

    def test_init_written_fraction_predemotes(self):
        engine, _ = make(CommonCountersEngine, init_written_fraction=1.0)
        assert not engine.counter_is_common(0)

    def test_warm_counters_demotes(self):
        engine, _ = make(CommonCountersEngine, init_written_fraction=0.0)
        engine.warm_counters_batch([5])
        assert not engine.counter_is_common(5)

    def test_replay_leaves_numpy_ma_unloaded(self):
        """On numpy 2.x, ``np.unique`` without a ``return_*`` flag asks
        ``np.ma.is_masked`` and so imports ``numpy.ma`` (about 0.9 MB of
        peak RSS). Warmup and writebacks demote regions without it."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        probe = (
            "import sys, numpy\n"
            "bare = 'numpy.ma' in sys.modules\n"
            "from repro.gpu.config import VOLTA\n"
            "from repro.gpu.simulator import replay_events, simulate_l2\n"
            "from repro.harness.runner import engine_factories\n"
            "from repro.workloads.benchmarks import build_trace\n"
            "log = simulate_l2(build_trace('lbm', length=400), VOLTA)\n"
            "result = replay_events(\n"
            "    log, engine_factories()['common-counters'], VOLTA)\n"
            "assert result.engine_stats.writebacks > 0\n"
            "print(bare, 'numpy.ma' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True,
            capture_output=True, text=True,
        ).stdout.split()
        if out[0] == "True":
            pytest.skip("a bare `import numpy` loads numpy.ma here")
        assert out == ["False", "False"]


class TestPlutusValueMacSide:
    def test_builds_and_reports_only_its_own_structures(self):
        """The side-only replay of the value cache and the MACs carries
        no counter store, counter cache or tree, and its snapshot,
        state and drain cover only what it built."""
        side, traffic = make(
            PlutusValueMacSide, mac_tag_bytes=8,
            cache_config=MetadataCacheConfig(),
            value_cache_config=ValueCacheConfig(),
        )
        for name in ("counters", "counter_cache", "bmt_cache", "bmt",
                     "compact"):
            assert not hasattr(side, name), name
        side.on_writeback_batch([0, 4], [ZEROS, None])
        side.on_fill_batch([64], [ZEROS])
        side.finalize()
        report = traffic.report()
        assert report.bytes_by_stream[Stream.MAC_WRITE] > 0
        assert report.metadata_bytes == report.mac_bytes
        assert set(side.obs_snapshot()) == set(VALUE_MAC_STATS) | {
            "value_probes", "value_hits", "value_pinned_hits",
        }
        # Stats, the MAC cache and the value cache.
        assert len(side._state_summary()) == 3


class TestPlutusValuePath:
    def hot_values(self):
        return b"\x11\x22\x33\x44" * 8

    def test_value_verified_fill_skips_mac(self):
        engine, traffic = make(PlutusEngine)
        engine.on_fill_batch([0], [self.hot_values()])  # cold: MAC fetched
        first_mac = traffic.report().mac_bytes
        engine.on_fill_batch([1024], [self.hot_values()])  # values now resident
        assert engine.stats.value_verified_fills == 1
        assert traffic.report().mac_bytes == first_mac

    def test_fill_without_values_falls_back(self):
        engine, traffic = make(PlutusEngine)
        engine.on_fill_batch([0], [None])
        assert engine.stats.value_verified_fills == 0
        assert traffic.report().mac_bytes > 0

    def test_write_verifiable_skips_mac_write(self):
        from repro.secure.value_cache import ValueCacheConfig

        engine, traffic = make(
            PlutusEngine,
            value_cache_config=ValueCacheConfig(pin_threshold=2),
        )
        for i in range(6):  # promote the values to pinned
            engine.on_fill_batch([i * 64], [self.hot_values()])
        engine.on_writeback_batch([9999], [self.hot_values()])
        assert engine.stats.mac_writes_avoided == 1

    def test_value_only_configuration(self):
        engine, traffic = make(PlutusEngine, compact_config=None,
                               design=GranularityDesign.BLOCK_128)
        engine.on_fill_batch([0], [self.hot_values()])
        report = traffic.report()
        assert report.bytes_by_stream[Stream.COMPACT_COUNTER_READ] == 0
        assert report.bytes_by_stream[Stream.COUNTER_READ] == 128


class TestPlutusCompactPath:
    def test_fresh_reads_touch_only_compact_layer(self):
        engine, traffic = make(PlutusEngine)
        engine.on_fill_batch([0], [None])
        report = traffic.report()
        assert report.bytes_by_stream[Stream.COMPACT_COUNTER_READ] == 32
        assert report.bytes_by_stream[Stream.COUNTER_READ] == 0

    def test_saturated_sector_costs_both_layers(self):
        engine, traffic = make(PlutusEngine)
        for _ in range(8):  # saturate the 3-bit compact counter
            engine.on_writeback_batch([0], [None])
        engine.on_fill_batch([0], [None])
        report = traffic.report()
        assert report.bytes_by_stream[Stream.COUNTER_READ] > 0
        assert engine.stats.compact_double_accesses > 0

    def test_warm_counters_advances_both_layers(self):
        engine, _ = make(PlutusEngine)
        for _ in range(5):
            engine.warm_counters_batch([3])
        assert engine.counters.combined(3) == 5
        assert engine.compact.write_count(3) == 5

    def test_compact_density_beats_original(self):
        """Widely-spaced fills: the compact layer (1 sector per 64 data
        sectors) must fetch fewer bytes than the originals would."""
        engine, traffic = make(PlutusEngine, value_cache_config=None)
        pssm, pssm_traffic = make(PssmEngine, design=GranularityDesign.ALL_32)
        for i in range(200):
            engine.on_fill_batch([i * 64], [None])
            pssm.on_fill_batch([i * 64], [None])
        assert (
            traffic.report().bytes_by_stream[Stream.COMPACT_COUNTER_READ]
            <= pssm_traffic.report().bytes_by_stream[Stream.COUNTER_READ]
        )


class TestPlutusTreeElimination:
    def test_no_tree_traffic_when_eliminated(self):
        engine, traffic = make(PlutusEngine, eliminate_tree=True)
        for i in range(50):
            engine.on_fill_batch([i * 512], [None])
            engine.on_writeback_batch([i * 512], [None])
        engine.finalize()
        report = traffic.report()
        assert report.tree_bytes == 0

    def test_tree_traffic_present_by_default(self):
        engine, traffic = make(PlutusEngine)
        for i in range(50):
            engine.on_fill_batch([i * 4096], [None])
        assert traffic.report().tree_bytes > 0


class TestWholeLineMetadataCaches:
    def test_fine_grained_plutus_finalizes(self):
        """The sectored-cache ablation's engine: 32 B tree nodes with
        lazy updates in whole-line caches, on a full Volta partition.
        No cache line holds a node and its off-chip parent, so the
        final flush drains."""
        traffic = TrafficCounter()
        engine = PlutusEngine(
            0, VOLTA.sectors_per_partition, traffic,
            design=GranularityDesign.ALL_32,
            value_cache_config=None,
            compact_config=None,
            cache_config=MetadataCacheConfig(sectored=False),
        )
        for i in range(50):
            engine.on_fill_batch([i * 4096], [None])
            engine.on_writeback_batch([i * 4096], [None])
        engine.finalize()
        assert not engine.bmt_cache.flush()
        report = traffic.report()
        assert report.bytes_by_stream[Stream.BMT_WRITE] > 0
        # Each 32 B counter miss fetched its whole 128 B line.
        assert report.bytes_by_stream[Stream.COUNTER_READ] == 50 * 128


class TestMinorOverflowInteraction:
    def test_overflow_forces_compact_sectors_to_original(self):
        from repro.metadata.split_counter import SplitCounterConfig
        from repro.metadata.compact import CounterRoute

        traffic = TrafficCounter()
        engine = PlutusEngine(
            0, SECTORS, traffic,
            counter_config=SplitCounterConfig(minor_bits=2, sectors_per_group=4),
        )
        # Writes 1-6 stay compact-only; the 7th saturates and starts
        # advancing the original minor, which overflows 4 writes later.
        for _ in range(12):
            engine.on_writeback_batch([0], [None])
        assert engine.stats.minor_overflows >= 1
        # Sectors sharing the major must now bypass the compact layer.
        plan = engine.compact.plan_read(1)
        assert plan.route is CounterRoute.COMPACT_THEN_ORIGINAL
