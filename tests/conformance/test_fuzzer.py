"""Fuzzer tests: determinism, pattern validity, ddmin shrinking."""

import random

import pytest

import repro.conformance.fuzzer as fuzzer_mod
from repro.conformance.fuzzer import (
    PATTERNS,
    fuzz,
    generate_log,
    rebuild_log,
    shrink,
)
from repro.gpu.simulator import EventKind
from repro.workloads.traceio import dumps_event_log


class TestGenerators:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_counts_match_events(self, pattern):
        log = generate_log(pattern, random.Random(99), f"t-{pattern}")
        fills = sum(
            1 for e in log.events.iter_events() if e.kind is EventKind.FILL
        )
        assert log.fill_sectors == fills
        assert log.writeback_sectors == len(log.events) - fills
        assert log.events

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_deterministic_for_a_seed(self, pattern):
        a = generate_log(pattern, random.Random(7), "t")
        b = generate_log(pattern, random.Random(7), "t")
        assert dumps_event_log(a) == dumps_event_log(b)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(KeyError, match="doom"):
            generate_log("doom", random.Random(0), "t")

    def test_write_storm_is_write_heavy(self):
        log = generate_log("write-storm", random.Random(5), "t")
        assert log.writeback_sectors > log.fill_sectors

    def test_value_thrash_values_all_distinct(self):
        log = generate_log("value-thrash", random.Random(5), "t")
        values = [e.values for e in log.events.iter_events()]
        assert len(set(values)) == len(values)


class TestShrink:
    def test_minimizes_to_predicate_core(self):
        log = generate_log("uniform", random.Random(1), "t")
        events = list(log.events.iter_events())
        magic = events[len(events) // 2].sector_index

        def predicate(candidate):
            return any(
                e.sector_index == magic
                for e in candidate.events.iter_events()
            )

        shrunk = shrink(log, predicate)
        [event] = shrunk.events.iter_events()
        assert event.sector_index == magic
        assert predicate(shrunk)

    def test_counts_recomputed_on_shrunk_log(self):
        log = generate_log("uniform", random.Random(2), "t")

        def predicate(candidate):
            return candidate.writeback_sectors >= 2

        shrunk = shrink(log, predicate)
        assert shrunk.writeback_sectors == 2
        assert shrunk.fill_sectors == 0
        assert len(shrunk.events) == 2

    def test_original_log_not_mutated(self):
        log = generate_log("uniform", random.Random(3), "t")
        before = dumps_event_log(log)
        shrink(log, lambda candidate: bool(candidate.events))
        assert dumps_event_log(log) == before

    def test_rejects_non_failing_original(self):
        log = generate_log("uniform", random.Random(4), "t")
        with pytest.raises(ValueError):
            shrink(log, lambda candidate: False)


class TestFuzzCampaign:
    def test_small_campaign_passes(self):
        report = fuzz(2, seed=2023, functional_events=24)
        assert report.supervision.ok
        assert report.ok
        assert report.iterations == 2
        assert sum(report.pattern_counts.values()) == 2

    def test_rejects_nonpositive_iterations(self):
        with pytest.raises(ValueError):
            fuzz(0, seed=1)

    def test_injected_violation_is_shrunk(self, monkeypatch):
        # Simulate an invariant violation triggered by any writeback:
        # the campaign must record the failure and hand back a ddmin
        # reproducer strictly smaller than the generating log.
        from repro.conformance.invariants import Violation

        def fake_evaluate(log, **kwargs):
            if any(
                e.kind is EventKind.WRITEBACK
                for e in log.events.iter_events()
            ):
                return [Violation("injected", "writeback present")]
            return []

        monkeypatch.setattr(fuzzer_mod, "evaluate_log", fake_evaluate)
        report = fuzz(3, seed=2023, functional_events=8)
        assert not report.ok
        failure = report.failures[0]
        assert len(failure.shrunk.events) < len(failure.log.events)
        [event] = failure.shrunk.events.iter_events()
        assert event.kind is EventKind.WRITEBACK
        assert failure.violations


class TestRebuild:
    def test_rebuild_preserves_profile(self):
        log = generate_log("sweep", random.Random(6), "profile-check")
        rebuilt = rebuild_log(log, list(log.events.iter_events())[:3])
        assert rebuilt.trace_name == log.trace_name
        assert rebuilt.counter_warmup_passes == log.counter_warmup_passes
        assert len(rebuilt.events) == 3


class TestJournalPayload:
    def test_failure_round_trips_as_event_log_text(self):
        # Supervised fuzz chunks journal their failures as JSON; the
        # logs travel as event-log text and reload event for event.
        import json

        from repro.conformance.fuzzer import FuzzFailure
        from repro.conformance.invariants import Violation

        log = generate_log("uniform", random.Random(8), "fuzz-s1-i0-uniform")
        shrunk = rebuild_log(log, list(log.events.iter_events())[:2])
        failure = FuzzFailure(
            iteration=0, pattern="uniform",
            violations=[Violation("injected", "writeback present")],
            log=log, shrunk=shrunk,
        )
        payload = json.loads(json.dumps(fuzzer_mod._failure_payload(failure)))
        assert payload["events"] == dumps_event_log(log)
        back = fuzzer_mod._failure_from_payload(payload)
        assert (back.iteration, back.pattern) == (0, "uniform")
        assert back.violations == failure.violations
        assert dumps_event_log(back.log) == dumps_event_log(log)
        assert dumps_event_log(back.shrunk) == dumps_event_log(shrunk)
        assert back.log.fill_sectors == log.fill_sectors
