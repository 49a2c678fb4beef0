"""Cut-invariance suite for the engine batch hooks.

Replay hands each engine its events as *runs*: consecutive same-kind
events of one partition, delivered in one ``on_fill_batch`` /
``on_writeback_batch`` call. Where the runs are cut depends on the row
order and on interval sampling, so the batch contract is that the cut
does not matter: any cut leaves the engine with the same traffic, the
same stats and the same internal state as single-event runs. This suite
checks the contract the strongest way available —

* Hypothesis generates random single-partition traces and random cuts;
  the result must equal the same trace replayed as single-event runs;
* deterministic hammers pin the known hard cases (minor-overflow
  re-encryption, compact-counter saturation, the value cache's x-of-n
  verification bound) against the recorded scalar oracle
  (``scalar_oracle.json``, see :mod:`tests.conformance.oracle`);
* doctored hooks prove the oracle and ddmin shrinking actually fire: a
  wrong hook breaks every cut shape the same way, so only an
  independent reference can catch it.

The comparison surface is ``TrafficCounter.report()``, ``EngineStats``
and ``PartitionEngine.state_digest()`` — the sha256 of everything the
engine's *future* behavior depends on (cache LRU orders, counter values,
compact states, value-cache contents, ...). The digest is the
load-bearing half: two replays can agree on traffic so far yet hold
different state that diverges only on later events.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.conformance.fuzzer import rebuild_log, shrink
from repro.gpu.columnar import EventKind
from repro.gpu.simulator import MemoryEvent, MemoryEventLog
from repro.secure.pssm import PssmEngine
from repro.secure.value_cache import ValueCache

from .oracle import (
    ORACLE,
    TRACES,
    assert_matches_oracle,
    build_engine,
    cut_shapes,
    replay,
)

#: Partition id is arbitrary but nonzero: common-counters salts its
#: initialization hash with it, so 0 would be a special case.
PARTITION = 3

#: The roster design points the random property covers.
ENGINE_KEYS = (
    "nosec",
    "pssm",
    "common-counters",
    "plutus",
    "plutus:value-only",
    "compact:adaptive",
    "gran:32B-all",
    "recoverable",
    "pssm:4B-mac",
)

#: Sector images of the recorded hammers: units on both sides of the
#: 3-of-4 verification bound, one fully hot image and one cold one.
VALUE_POOL = sorted(
    {v for _w, _s, v in TRACES["hammer-value-bound"][2] if v is not None}
)

HAMMER_STORMS = ("hammer-storm-0", "hammer-storm-20")


def _single(n):
    """Cuts that make every run a single event."""
    return set(range(1, n))


def _assert_cut_invariant(key, events, passes, cuts):
    ref = replay(key, events, passes, _single(len(events)), PARTITION)
    got = replay(key, events, passes, cuts, PARTITION)
    assert got["traffic"] == ref["traffic"], f"{key}: traffic diverged"
    assert got["stats"] == ref["stats"], f"{key}: engine stats diverged"
    assert got["digest"] == ref["digest"], f"{key}: state digest diverged"


# -- hypothesis strategies ---------------------------------------------------


@st.composite
def traces(draw):
    """(events, warmup passes, batch cuts) for one partition.

    Sectors come from a narrow window so caches conflict, counters
    climb toward overflow, and the value pool actually re-occurs;
    values mix bound-straddling images, ``None`` (lost payloads), and
    the pool's cold entry.
    """
    base = draw(st.integers(min_value=0, max_value=4000))
    span = draw(st.integers(min_value=2, max_value=24))
    n = draw(st.integers(min_value=1, max_value=90))
    events = []
    for _ in range(n):
        is_writeback = draw(st.booleans())
        sector = base + draw(st.integers(min_value=0, max_value=span - 1))
        value = draw(st.one_of(
            st.none(), st.sampled_from(VALUE_POOL),
        ))
        events.append((is_writeback, sector, value))
    passes = draw(st.integers(min_value=0, max_value=3))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=max(1, n - 1)),
                        max_size=8))
    return events, passes, cuts


class TestCutInvariance:
    """Random traces, random cuts, full-surface comparison."""

    @pytest.mark.parametrize("key", ENGINE_KEYS)
    @given(trace=traces())
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_cuts_match_single_event_runs(self, key, trace):
        events, passes, cuts = trace
        _assert_cut_invariant(key, events, passes, cuts)


class TestDeterministicHammers:
    """Pinned worst cases, checked against the recorded scalar oracle."""

    @pytest.mark.parametrize("key", ["pssm", "plutus", "compact:adaptive",
                                     "common-counters", "recoverable"])
    def test_overflow_and_saturation_under_batching(self, key):
        # 220 writes over 3 sectors: split-counter minor overflow fires
        # (64 writes per sector) and 3-bit compact counters saturate and
        # adaptively disable; 20 warmup passes push state further still.
        for name in HAMMER_STORMS:
            n = len(TRACES[name][2])
            for seed in range(3):
                cut_rng = random.Random(seed)
                cuts = {cut_rng.randrange(1, n) for _ in range(6)}
                assert_matches_oracle(key, name, cuts)

    @pytest.mark.parametrize("key", ["plutus", "plutus:value-only"])
    def test_value_verification_bound_under_batching(self, key):
        # Interleaved fills/writebacks whose images sit at 2-of-4 and
        # 3-of-4 hot words per unit — one short of, and exactly at, the
        # verification bound. A key-extraction or probe-order bug flips
        # mac_fetches_avoided / value_verified_fills immediately.
        n = len(TRACES["hammer-value-bound"][2])
        rng = random.Random(23)
        cuts = {rng.randrange(1, n) for _ in range(10)}
        assert_matches_oracle(key, "hammer-value-bound", cuts)

    @pytest.mark.parametrize("key", ENGINE_KEYS)
    def test_single_event_batches_degenerate_to_scalar(self, key):
        # A scalar call is a run of length 1: single-event runs of the
        # hammers must reproduce the recorded per-event scalar replays.
        for name in (*HAMMER_STORMS, "hammer-value-bound"):
            assert_matches_oracle(key, name, _single(len(TRACES[name][2])))


class TestRejectedRuns:
    """A hook that rejects a run raises before it changes any state."""

    def _short_image_fill(self, engine):
        engine.on_fill_batch(
            np.array([50, 51, 52], dtype=np.int64),
            [VALUE_POOL[0], b"short", VALUE_POOL[1]],
        )

    def _negative_sector_warmup(self, engine):
        engine.warm_counters_batch(np.array([7, 8, -1, 9], dtype=np.int64), 2)

    @pytest.mark.parametrize("key,reject", [
        ("plutus", "_short_image_fill"),
        *[(key, "_negative_sector_warmup") for key in ENGINE_KEYS
          if key != "nosec"],
    ])
    def test_rejected_run_changes_nothing(self, key, reject):
        engine, traffic = build_engine(key, PARTITION)
        # Some history first, so "unchanged" is not just "empty".
        engine.warm_counters_batch(np.array([7, 8], dtype=np.int64), 3)
        engine.on_writeback_batch(np.array([7], dtype=np.int64),
                                  [VALUE_POOL[0]])
        engine.on_fill_batch(np.array([8], dtype=np.int64), [VALUE_POOL[1]])
        digest = engine.state_digest()
        before = traffic.report()
        with pytest.raises(ValueError):
            getattr(self, reject)(engine)
        assert engine.state_digest() == digest
        assert traffic.report() == before


# -- doctored implementations must be caught ---------------------------------


def _doctor_value_training(monkeypatch):
    """Make the value cache's training switchable; returns the switch."""
    honest = ValueCache.observe_keys
    doctored = {"on": True}

    def observe_keys(self, keys):
        if not doctored["on"]:
            honest(self, keys)

    monkeypatch.setattr(ValueCache, "observe_keys", observe_keys)
    return doctored


class TestDoctoredImplementationsAreCaught:
    """Break a batch hook on purpose; the oracle must fire on every cut."""

    def test_off_by_one_counter_batch_caught_by_oracle(self, monkeypatch):
        # Doctor: the fill hook advances every counter lookup by one
        # counter *line*. With the coarse BLOCK_128 design a line covers
        # 128 data sectors (4 counter sectors x 32), so that is the
        # smallest shift that actually changes the (line, mask) pair —
        # the classic off-by-one a vectorized line-index computation can
        # introduce. Fills then probe a different line than the
        # writebacks warmed, costing extra counter fetches.
        def doctored(self, sectors, values):
            sectors = self._checked(sectors)
            self.stats.fills += len(sectors)
            self._batch_counter_reads(sectors + 128)
            self._batch_mac_reads(sectors)

        monkeypatch.setattr(PssmEngine, "on_fill_batch", doctored)
        name = "fuzz-uniform-p11"
        partition, passes, events = TRACES[name]
        shapes = cut_shapes(len(events), 0).values()
        # Cut invariance alone cannot see it: every shape agrees ...
        results = [replay("pssm", events, passes, cuts, partition)
                   for cuts in shapes]
        assert all(result == results[0] for result in results)
        # ... and every shape disagrees with the recorded oracle.
        for cuts in shapes:
            with pytest.raises(AssertionError):
                assert_matches_oracle("pssm", name, cuts)

    def test_skipped_value_observe_caught_by_state_digest(self, monkeypatch):
        # Doctor: the hooks forget to train the value cache. The traffic
        # of a short trace may not diverge yet — but the state digest
        # must, because future MAC avoidance depends on the cache's
        # contents.
        _doctor_value_training(monkeypatch)
        partition, passes, events = TRACES["hammer-value-bound"]
        want = ORACLE["records"]["hammer-value-bound"]["plutus"]["digest"]
        for cuts in cut_shapes(len(events), 0).values():
            got = replay("plutus", events, passes, cuts, partition)
            assert got["digest"] != want, (
                "state digest failed to catch the skipped value-cache "
                "training"
            )

    def test_differential_failure_shrinks_with_ddmin(self, monkeypatch):
        # The suite's failure path: once the oracle flags a recorded
        # trace, ddmin shrinks it to a minimal reproducer, comparing the
        # doctored hooks with the honest ones on every candidate.
        doctored = _doctor_value_training(monkeypatch)
        name = "fuzz-value-hot-p12"
        partition, passes, events = TRACES[name]
        with pytest.raises(AssertionError):
            assert_matches_oracle("plutus", name, set())

        def digest(candidate, doctor):
            doctored["on"] = doctor
            candidate_events = [
                (ev.kind is EventKind.WRITEBACK, ev.sector_index, ev.values)
                for ev in candidate.events.iter_events()
            ]
            return replay("plutus", candidate_events, passes, set(),
                          partition)["digest"]

        def disagrees(candidate):
            return digest(candidate, True) != digest(candidate, False)

        kinds = (EventKind.FILL, EventKind.WRITEBACK)
        log = rebuild_log(
            MemoryEventLog(
                trace_name=name, memory_intensity=0.5, instructions=1,
                counter_warmup_passes=passes,
            ),
            [MemoryEvent(kinds[w], partition, s, v) for w, s, v in events],
        )
        minimal = shrink(log, disagrees)
        assert len(minimal.events) < len(log.events)
        assert disagrees(
            rebuild_log(minimal, list(minimal.events.iter_events()))
        )
