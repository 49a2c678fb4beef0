"""Tests for the replay matrix helper and the differential run context."""

import pytest

from repro.conformance.functional import execute_log
from repro.conformance.fuzzer import rebuild_log
from repro.conformance.matrix import (
    conformance_factories,
    run_matrix,
)
from repro.gpu.config import VOLTA
from repro.gpu.simulator import (
    EventKind,
    MemoryEvent,
    MemoryEventLog,
    replay_matrix,
)


def _log(partitions=(0, 1), sectors=4, rounds=6, name="unit"):
    base = MemoryEventLog(
        trace_name=name, memory_intensity=0.5, instructions=1
    )
    events = []
    value = bytes(range(32))
    for r in range(rounds):
        for p in partitions:
            for s in range(sectors):
                kind = EventKind.WRITEBACK if r % 2 else EventKind.FILL
                events.append(MemoryEvent(kind, p, s, value))
    return rebuild_log(base, events)


class TestReplayMatrix:
    def test_results_keyed_and_ordered_like_factories(self):
        factories = conformance_factories(("nosec", "pssm"))
        results = replay_matrix(_log(), factories, VOLTA)
        assert list(results) == ["nosec", "pssm"]

    def test_same_log_drives_every_engine(self):
        log = _log()
        factories = conformance_factories(("nosec", "pssm"))
        results = replay_matrix(log, factories, VOLTA)
        for result in results.values():
            assert result.engine_stats.fills == log.fill_sectors
            assert result.engine_stats.writebacks == log.writeback_sectors

    def test_unknown_engine_key_raises(self):
        with pytest.raises(KeyError, match="doom"):
            conformance_factories(("nosec", "doom"))


class TestRunMatrix:
    def test_populates_cross_checks(self):
        run = run_matrix(
            _log(partitions=(0, 1)),
            engines=("nosec", "pssm", "plutus"),
            functional_modes=("pssm",),
            functional_events=16,
        )
        assert set(run.results) == {"nosec", "pssm", "plutus"}
        assert run.roundtrip is not None and run.roundtrip[0] == "plutus"
        assert set(run.functional) == {"pssm"}
        assert set(run.object_path) == set(run.results)

    def test_columnar_cross_check_matches_default_path(self):
        run = run_matrix(
            _log(),
            engines=("nosec", "plutus"),
            check_roundtrip=False,
            functional_modes=(),
        )
        for key, scalar in run.object_path.items():
            columnar = run.results[key]
            assert columnar.traffic == scalar.traffic
            assert columnar.engine_stats == scalar.engine_stats

    def test_columnar_cross_check_can_be_disabled(self):
        run = run_matrix(
            _log(),
            engines=("nosec",),
            check_roundtrip=False,
            check_columnar=False,
            functional_modes=(),
        )
        assert run.object_path == {}

    def test_stages_can_be_disabled(self):
        run = run_matrix(
            _log(),
            engines=("nosec",),
            check_roundtrip=False,
            functional_modes=(),
        )
        assert run.roundtrip is None
        assert run.functional == {}

    def test_claims_flag_recorded(self):
        run = run_matrix(
            _log(), engines=("nosec",), claims_apply=True,
            check_roundtrip=False, functional_modes=(),
        )
        assert run.claims_apply


class TestFunctionalOracle:
    def test_write_then_read_accounting(self):
        value = bytes(range(32))
        other = bytes(reversed(range(32)))
        base = MemoryEventLog(
            trace_name="f", memory_intensity=0.5, instructions=1
        )
        log = rebuild_log(base, [
            MemoryEvent(EventKind.WRITEBACK, 0, 5, value),
            MemoryEvent(EventKind.FILL, 0, 5, other),
            MemoryEvent(EventKind.FILL, 0, 9, None),
        ])
        outcome = execute_log(log, "pssm")
        assert outcome.events_consumed == 3
        assert outcome.writes == 1 and outcome.reads == 2
        assert outcome.written_reads == 1
        assert outcome.mismatches == 0
        assert outcome.security_violations == []
        assert outcome.mac_checks == 1
        assert outcome.mac_checks_avoided == 0

    def test_fold_aliases_share_storage(self):
        value = bytes(range(32))
        base = MemoryEventLog(
            trace_name="f", memory_intensity=0.5, instructions=1
        )
        # Sectors 1 and 1+fold collide in the folded functional memory;
        # the shadow model folds identically, so no false mismatch.
        log = rebuild_log(base, [
            MemoryEvent(EventKind.WRITEBACK, 0, 1, value),
            MemoryEvent(EventKind.FILL, 0, 1 + 8, value),
        ])
        outcome = execute_log(log, "plutus", fold_sectors=8)
        assert outcome.written_reads == 1
        assert outcome.mismatches == 0

    def test_max_events_caps_execution(self):
        log = _log(partitions=(0,), sectors=4, rounds=8)
        outcome = execute_log(log, "pssm", max_events=10)
        assert outcome.events_consumed == 10
        assert outcome.fills_seen + outcome.writebacks_seen == 10

    def test_rejects_bad_fold(self):
        with pytest.raises(ValueError):
            execute_log(_log(), "pssm", fold_sectors=0)
