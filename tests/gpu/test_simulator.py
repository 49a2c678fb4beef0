"""Tests for the trace-driven simulator (L2 pass + engine replay)."""

import pytest

from repro.gpu.config import VOLTA
from repro.gpu.simulator import (
    EventKind,
    replay_events,
    simulate,
    simulate_l2,
)
from repro.mem.traffic import Stream
from repro.secure.engine import NoSecurityEngine
from repro.secure.pssm import PssmEngine
from repro.workloads.trace import Trace, TraceAccess


def events_of(log, kind):
    return [e for e in log.events.iter_events() if e.kind is kind]


def tiny_trace(accesses):
    return Trace(name="tiny", accesses=accesses, memory_intensity=0.8)


class TestL2Pass:
    def test_read_miss_emits_fill(self):
        trace = tiny_trace([TraceAccess(0x0, 0b0001, False)])
        log = simulate_l2(trace, VOLTA)
        assert log.fill_sectors == 1
        assert next(log.events.iter_events()).kind is EventKind.FILL

    def test_read_hit_emits_nothing(self):
        trace = tiny_trace(
            [TraceAccess(0x0, 0b0001, False), TraceAccess(0x0, 0b0001, False)]
        )
        log = simulate_l2(trace, VOLTA)
        assert log.fill_sectors == 1  # only the cold miss

    def test_write_allocates_without_fetch(self):
        trace = tiny_trace([TraceAccess(0x0, 0b1111, True)])
        log = simulate_l2(trace, VOLTA)
        assert log.fill_sectors == 0
        assert log.writeback_sectors == 4  # flushed at kernel end

    def test_dirty_data_flushed_at_end(self):
        trace = tiny_trace([TraceAccess(0x0, 0b0011, True)])
        log = simulate_l2(trace, VOLTA)
        writebacks = events_of(log, EventKind.WRITEBACK)
        assert len(writebacks) == 2

    def test_writeback_carries_written_values(self):
        image = bytes(range(32))
        trace = tiny_trace([TraceAccess(0x0, 0b0001, True, [(0, image)])])
        log = simulate_l2(trace, VOLTA)
        wb = events_of(log, EventKind.WRITEBACK)[0]
        assert wb.values == image

    def test_fill_carries_read_values(self):
        image = bytes(range(32))
        trace = tiny_trace([TraceAccess(0x80, 0b0001, False, [(0, image)])])
        log = simulate_l2(trace, VOLTA)
        assert next(log.events.iter_events()).values == image

    def test_read_after_write_hits_in_l2(self):
        trace = tiny_trace(
            [TraceAccess(0x0, 0b0001, True), TraceAccess(0x0, 0b0001, False)]
        )
        log = simulate_l2(trace, VOLTA)
        assert log.fill_sectors == 0

    def test_partitions_route_by_address_map(self):
        accesses = [TraceAccess(i * 128, 0b0001, False) for i in range(64)]
        log = simulate_l2(tiny_trace(accesses), VOLTA)
        partitions = {e.partition for e in log.events.iter_events()}
        assert len(partitions) > 8  # spread across many partitions

    def test_metadata_carried_from_trace(self):
        trace = Trace(
            name="x", accesses=[TraceAccess(0, 1, False)],
            memory_intensity=0.5, instructions=777,
            counter_warmup_passes=9,
        )
        log = simulate_l2(trace, VOLTA)
        assert log.memory_intensity == 0.5
        assert log.instructions == 777
        assert log.counter_warmup_passes == 9


class TestReplay:
    def test_data_traffic_matches_events(self):
        trace = tiny_trace(
            [TraceAccess(0x0, 0b1111, False), TraceAccess(0x100, 0b0011, True)]
        )
        log = simulate_l2(trace, VOLTA)
        result = replay_events(log, lambda p, s, t: NoSecurityEngine(p, s, t), VOLTA)
        assert result.traffic.bytes_by_stream[Stream.DATA_READ] == 4 * 32
        assert result.traffic.bytes_by_stream[Stream.DATA_WRITE] == 2 * 32

    def test_one_log_serves_many_engines(self, bfs_log):
        nosec = replay_events(bfs_log, lambda p, s, t: NoSecurityEngine(p, s, t), VOLTA)
        pssm = replay_events(bfs_log, lambda p, s, t: PssmEngine(p, s, t), VOLTA)
        assert nosec.traffic.data_bytes == pssm.traffic.data_bytes
        assert pssm.metadata_bytes > 0
        assert nosec.metadata_bytes == 0

    def test_replay_is_deterministic(self, bfs_log):
        a = replay_events(bfs_log, lambda p, s, t: PssmEngine(p, s, t), VOLTA)
        b = replay_events(bfs_log, lambda p, s, t: PssmEngine(p, s, t), VOLTA)
        assert a.traffic.bytes_by_stream == b.traffic.bytes_by_stream

    def test_warmup_changes_counter_state_not_data(self, lbm_log):
        cold = replay_events(
            lbm_log, lambda p, s, t: PssmEngine(p, s, t), VOLTA,
            counter_warmup_passes=0,
        )
        warm = replay_events(
            lbm_log, lambda p, s, t: PssmEngine(p, s, t), VOLTA,
            counter_warmup_passes=5,
        )
        assert cold.traffic.data_bytes == warm.traffic.data_bytes

    def test_negative_warmup_rejected(self, bfs_log):
        with pytest.raises(ValueError):
            replay_events(
                bfs_log, lambda p, s, t: NoSecurityEngine(p, s, t), VOLTA,
                counter_warmup_passes=-1,
            )

    def test_engine_stats_merged_across_partitions(self, bfs_log):
        result = replay_events(bfs_log, lambda p, s, t: PssmEngine(p, s, t), VOLTA)
        assert result.engine_stats.fills == bfs_log.fill_sectors
        assert result.engine_stats.writebacks == bfs_log.writeback_sectors


class TestOneShot:
    def test_simulate_composes(self, bfs_trace):
        result = simulate(bfs_trace, lambda p, s, t: NoSecurityEngine(p, s, t), VOLTA)
        assert result.trace_name == "bfs"
        assert result.total_bytes > 0
