"""Hypothesis property tests riding on the conformance subsystem.

Two metamorphic properties from the issue:

* **Warmup invariance** — measured traffic is independent of
  ``counter_warmup_passes`` for engines without saturating warmup
  state (nosec, pssm), provided no split counter crosses its minor
  overflow (64 writes per sector): logs are constrained to at most 8
  writes per sector and warmup depth at most 5, so the worst case is
  8 x (5 + 1) = 48 < 64 increments.
* **Value-cache monotonicity** — with pinning disabled the value cache
  is pure LRU, whose inclusion property makes hits (and therefore
  value-verified fills) nondecreasing in cache size for the same
  probe/observe sequence.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.conformance.fuzzer import rebuild_log
from repro.gpu.config import VOLTA
from repro.gpu.simulator import (
    EventKind,
    MemoryEvent,
    MemoryEventLog,
    replay_events,
)
from repro.harness.runner import EngineSpec
from repro.secure.engine import NoSecurityEngine
from repro.secure.plutus import PlutusEngine
from repro.secure.pssm import PssmEngine
from repro.secure.value_cache import ValueCache, ValueCacheConfig

MAX_WRITES_PER_SECTOR = 8
MAX_WARMUP = 5

_event = st.tuples(
    st.booleans(),                   # fill?
    st.integers(min_value=0, max_value=1),   # partition
    st.integers(min_value=0, max_value=11),  # sector
)


def _bounded_events(draw_events):
    """Cap writebacks at MAX_WRITES_PER_SECTOR per (partition, sector)."""
    writes = Counter()
    value = bytes(range(32))
    events = []
    for fill, partition, sector in draw_events:
        kind = EventKind.FILL if fill else EventKind.WRITEBACK
        if kind is EventKind.WRITEBACK:
            if writes[(partition, sector)] >= MAX_WRITES_PER_SECTOR:
                kind = EventKind.FILL
            else:
                writes[(partition, sector)] += 1
        events.append(MemoryEvent(kind, partition, sector, value))
    return events


def _log_from(draw_events, warmup=0):
    base = MemoryEventLog(
        trace_name="prop", memory_intensity=0.5, instructions=1,
        counter_warmup_passes=warmup,
    )
    return rebuild_log(base, _bounded_events(draw_events))


class TestWarmupInvariance:
    @given(st.lists(_event, min_size=1, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_traffic_independent_of_warmup(self, raw_events):
        log = _log_from(raw_events)
        for spec in (EngineSpec(NoSecurityEngine), EngineSpec(PssmEngine)):
            reports = [
                replay_events(
                    log, spec, VOLTA, counter_warmup_passes=passes
                ).traffic
                for passes in (0, 2, MAX_WARMUP)
            ]
            reference = reports[0]
            for report in reports[1:]:
                assert report.bytes_by_stream == reference.bytes_by_stream
                assert (
                    report.transactions_by_stream
                    == reference.transactions_by_stream
                )


_value = st.integers(min_value=0, max_value=(1 << 32) - 1)


class TestValueCacheMonotonicity:
    @given(
        st.lists(
            st.lists(_value, min_size=8, max_size=8), min_size=4, max_size=40
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_hit_rate_nondecreasing_in_entries(self, sectors):
        # Probe every value of every sector (probe, not verify_sector —
        # the latter short-circuits after a failed unit, which would
        # make probe counts size-dependent), then observe, mirroring
        # the fill path's state updates.
        caches = [
            ValueCache(ValueCacheConfig(entries=n, pinned_fraction=0.0))
            for n in (16, 64, 256)
        ]
        for cache in caches:
            for values in sectors:
                for value in values:
                    cache.probe(value)
                cache.observe_many(values)
        # Identical probe sequences, so hit-rate order is hit order.
        probes = {cache.stats.probes for cache in caches}
        assert len(probes) == 1
        hits = [cache.stats.hits for cache in caches]
        assert hits == sorted(hits)
        rates = [cache.stats.hit_rate for cache in caches]
        assert rates == sorted(rates)

    @given(
        st.lists(
            st.lists(_value, min_size=8, max_size=8), min_size=4, max_size=30
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_verified_sectors_nondecreasing_in_entries(self, sectors):
        # The fill path proper (verify_sector short-circuit included):
        # verified-sector counts still order by cache size, because a
        # bigger LRU cache holds a superset of a smaller one.
        caches = [
            ValueCache(ValueCacheConfig(entries=n, pinned_fraction=0.0))
            for n in (16, 64, 256)
        ]
        for cache in caches:
            for values in sectors:
                cache.verify_sector(values)
                cache.observe_many(values)
        verified = [cache.stats.sectors_verified for cache in caches]
        assert verified == sorted(verified)

    @given(
        st.lists(_event, min_size=10, max_size=60),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=10, deadline=None)
    def test_engine_verified_fills_nondecreasing(self, raw_events, seed):
        import random

        rng = random.Random(seed)
        pool = [rng.getrandbits(256).to_bytes(32, "little") for _ in range(6)]
        base = MemoryEventLog(
            trace_name="vmono", memory_intensity=0.5, instructions=1
        )
        events = [
            MemoryEvent(
                EventKind.FILL if fill else EventKind.WRITEBACK,
                partition, sector, rng.choice(pool),
            )
            for fill, partition, sector in raw_events
        ]
        log = rebuild_log(base, events)
        verified = []
        for entries in (16, 64, 256):
            spec = EngineSpec(
                PlutusEngine,
                value_cache_config=ValueCacheConfig(
                    entries=entries, pinned_fraction=0.0
                ),
            )
            result = replay_events(log, spec, VOLTA)
            verified.append(result.engine_stats.value_verified_fills)
        assert verified == sorted(verified)
