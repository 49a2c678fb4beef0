"""Oracle tests: clean runs pass, doctored runs name the invariant."""

from repro.conformance.fuzzer import rebuild_log
from repro.conformance.invariants import INVARIANTS, check_run
from repro.conformance.matrix import MatrixRun, run_matrix
from repro.gpu.config import VOLTA
from repro.gpu.simulator import (
    EventKind,
    L2Stats,
    MemoryEvent,
    MemoryEventLog,
    SimulationResult,
)
from repro.mem.traffic import Stream, TrafficCounter
from repro.secure.engine import EngineStats


def _log(partitions=(0, 1), sectors=3, rounds=4):
    base = MemoryEventLog(
        trace_name="inv", memory_intensity=0.5, instructions=1
    )
    value = bytes(range(32))
    events = []
    for r in range(rounds):
        for p in partitions:
            for s in range(sectors):
                kind = EventKind.FILL if r % 2 else EventKind.WRITEBACK
                events.append(MemoryEvent(kind, p, s, value))
    return rebuild_log(base, events)


def _result(name, stats, **streams):
    counter = TrafficCounter()
    for key, (nbytes, ntx) in streams.items():
        counter.record(Stream(key), nbytes, transactions=ntx)
    return SimulationResult(
        engine_name=name,
        trace_name="inv",
        memory_intensity=0.5,
        instructions=1,
        traffic=counter.report(),
        engine_stats=stats,
        l2_stats=L2Stats(),
    )


def _consistent_result(name, log, metadata_bytes=0):
    stats = EngineStats(
        fills=log.fill_sectors, writebacks=log.writeback_sectors
    )
    streams = {
        "data_read": (32 * log.fill_sectors, log.fill_sectors),
        "data_write": (32 * log.writeback_sectors, log.writeback_sectors),
    }
    if metadata_bytes:
        streams["counter_read"] = (metadata_bytes, metadata_bytes // 32)
    return _result(name, stats, **streams)


def _names(violations):
    return {v.invariant for v in violations}


class TestCleanRun:
    def test_real_matrix_run_is_clean(self):
        run = run_matrix(
            _log(),
            engines=("nosec", "pssm", "plutus"),
            functional_events=24,
        )
        assert check_run(run) == []

    def test_synthetic_consistent_run_is_clean(self):
        log = _log()
        run = MatrixRun(
            log=log,
            config=VOLTA,
            results={
                "nosec": _consistent_result("nosec", log),
                "pssm": _consistent_result("pssm", log, metadata_bytes=320),
            },
        )
        assert check_run(run) == []


class TestDoctoredRuns:
    def test_stream_quantum_violation_detected(self):
        log = _log()
        bad = _consistent_result("nosec", log)
        # Shave one byte off a stream without touching transactions.
        counter = TrafficCounter()
        counter.record(
            Stream.DATA_READ, 32 * log.fill_sectors - 1,
            transactions=log.fill_sectors,
        )
        counter.record(
            Stream.DATA_WRITE, 32 * log.writeback_sectors,
            transactions=log.writeback_sectors,
        )
        bad = SimulationResult(
            engine_name="nosec", trace_name="inv", memory_intensity=0.5,
            instructions=1, traffic=counter.report(),
            engine_stats=bad.engine_stats, l2_stats=L2Stats(),
        )
        run = MatrixRun(log=log, config=VOLTA, results={"nosec": bad})
        assert "stream-quantum" in _names(check_run(run))

    def test_data_accounting_violation_detected(self):
        log = _log()
        stats = EngineStats(fills=log.fill_sectors + 1,
                            writebacks=log.writeback_sectors)
        bad = _result(
            "pssm", stats,
            data_read=(32 * log.fill_sectors, log.fill_sectors),
            data_write=(32 * log.writeback_sectors, log.writeback_sectors),
        )
        run = MatrixRun(log=log, config=VOLTA, results={"pssm": bad})
        assert "data-accounting" in _names(check_run(run))

    def test_data_identity_violation_detected(self):
        log = _log()
        drifted = _result(
            "pssm",
            EngineStats(fills=log.fill_sectors,
                        writebacks=log.writeback_sectors),
            data_read=(32 * (log.fill_sectors + 2), log.fill_sectors + 2),
            data_write=(32 * log.writeback_sectors, log.writeback_sectors),
        )
        run = MatrixRun(
            log=log, config=VOLTA,
            results={
                "nosec": _consistent_result("nosec", log),
                "pssm": drifted,
            },
        )
        assert "data-identity" in _names(check_run(run))

    def test_nosec_metadata_violation_detected(self):
        log = _log()
        run = MatrixRun(
            log=log, config=VOLTA,
            results={
                "nosec": _consistent_result("nosec", log, metadata_bytes=32),
            },
        )
        assert "nosec-floor" in _names(check_run(run))

    def test_roundtrip_divergence_detected(self):
        log = _log()
        run = MatrixRun(
            log=log, config=VOLTA,
            results={"plutus": _consistent_result("plutus", log,
                                                  metadata_bytes=64)},
            roundtrip=("plutus", _consistent_result("plutus", log,
                                                    metadata_bytes=32)),
        )
        assert "io-roundtrip" in _names(check_run(run))


class TestClaimScoping:
    def _ordering_violation_run(self, claims_apply):
        log = _log()
        return MatrixRun(
            log=log, config=VOLTA,
            results={
                "pssm": _consistent_result("pssm", log, metadata_bytes=64),
                "plutus": _consistent_result("plutus", log,
                                             metadata_bytes=128),
            },
            claims_apply=claims_apply,
        )

    def test_claim_invariants_skipped_without_flag(self):
        run = self._ordering_violation_run(claims_apply=False)
        assert "plutus-leq-pssm" not in _names(check_run(run))

    def test_claim_invariants_enforced_with_flag(self):
        run = self._ordering_violation_run(claims_apply=True)
        assert "plutus-leq-pssm" in _names(check_run(run))

    def test_secure_metadata_presence_is_claim_scoped(self):
        log = _log()
        run = MatrixRun(
            log=log, config=VOLTA,
            results={"pssm": _consistent_result("pssm", log)},
            claims_apply=True,
        )
        assert "secure-metadata-present" in _names(check_run(run))


class TestRegistry:
    def test_invariant_names_unique(self):
        names = [inv.name for inv in INVARIANTS]
        assert len(names) == len(set(names))

    def test_universal_and_claim_invariants_both_declared(self):
        scopes = {inv.universal for inv in INVARIANTS}
        assert scopes == {True, False}
