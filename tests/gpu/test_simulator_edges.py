"""Edge-case tests for the simulator's L2 semantics."""

from repro.gpu.config import VOLTA
from repro.gpu.simulator import EventKind, simulate, simulate_l2
from repro.secure.engine import NoSecurityEngine
from repro.workloads.trace import Trace, TraceAccess


def tiny(accesses):
    return Trace(name="edge", accesses=accesses, memory_intensity=0.8)


class TestPartialSectorSemantics:
    def test_write_then_read_of_other_sector_fetches_only_missing(self):
        trace = tiny([
            TraceAccess(0x0, 0b0001, True),    # dirty sector 0
            TraceAccess(0x0, 0b0011, False),   # read sectors 0 and 1
        ])
        log = simulate_l2(trace, VOLTA)
        fills = [e for e in log.events if e.kind is EventKind.FILL]
        assert len(fills) == 1  # only sector 1 missed

    def test_dirty_bit_survives_read_hits(self):
        trace = tiny([
            TraceAccess(0x0, 0b0001, True),
            TraceAccess(0x0, 0b0001, False),
            TraceAccess(0x0, 0b0001, False),
        ])
        log = simulate_l2(trace, VOLTA)
        writebacks = [e for e in log.events if e.kind is EventKind.WRITEBACK]
        assert len(writebacks) == 1  # flushed once, still dirty

    def test_rewrite_updates_writeback_values(self):
        first = b"\x01" * 32
        second = b"\x02" * 32
        trace = tiny([
            TraceAccess(0x0, 0b0001, True, [(0, first)]),
            TraceAccess(0x0, 0b0001, True, [(0, second)]),
        ])
        log = simulate_l2(trace, VOLTA)
        wb = [e for e in log.events if e.kind is EventKind.WRITEBACK][0]
        assert wb.values == second

    def test_mixed_masks_accumulate_dirty(self):
        trace = tiny([
            TraceAccess(0x0, 0b0001, True),
            TraceAccess(0x0, 0b0100, True),
        ])
        log = simulate_l2(trace, VOLTA)
        writebacks = [e for e in log.events if e.kind is EventKind.WRITEBACK]
        assert len(writebacks) == 2


class TestSimulateEquivalence:
    def test_one_shot_matches_two_phase(self, bfs_trace):
        from repro.gpu.simulator import replay_events

        one_shot = simulate(
            bfs_trace, lambda p, s, t: NoSecurityEngine(p, s, t), VOLTA
        )
        log = simulate_l2(bfs_trace, VOLTA)
        two_phase = replay_events(
            log, lambda p, s, t: NoSecurityEngine(p, s, t), VOLTA
        )
        assert one_shot.traffic.bytes_by_stream == two_phase.traffic.bytes_by_stream


class TestEngineLifecycle:
    def test_finalize_is_idempotent(self):
        from repro.mem.traffic import TrafficCounter
        from repro.secure.pssm import PssmEngine

        traffic = TrafficCounter()
        engine = PssmEngine(0, 1 << 20, traffic)
        engine.on_writeback_batch([3], [None])
        engine.finalize()
        after_first = traffic.report().total_bytes
        engine.finalize()
        assert traffic.report().total_bytes == after_first

    def test_nosecurity_warmup_is_a_noop(self):
        from repro.mem.traffic import TrafficCounter

        traffic = TrafficCounter()
        engine = NoSecurityEngine(0, 1 << 20, traffic)
        engine.warm_counters_batch([5])
        assert traffic.report().total_bytes == 0
