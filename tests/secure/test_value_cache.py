"""Tests for the Plutus value cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.secure.value_cache import ValueCache, ValueCacheConfig


def fill_unit(value):
    """A 128-bit unit whose four 32-bit values all equal *value*."""
    return [value] * 4


class TestConfig:
    def test_paper_defaults(self):
        config = ValueCacheConfig()
        assert config.entries == 256
        assert config.effective_value_bits == 28
        assert config.hits_required == 3
        assert config.pinned_capacity == 64
        assert config.transient_capacity == 192

    def test_storage_is_about_1kb(self):
        """Paper Section IV-F: 256 entries with frequency counters ~1 kB."""
        config = ValueCacheConfig()
        assert 1024 <= config.storage_bytes <= 1200

    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError):
            ValueCacheConfig(entries=0)
        with pytest.raises(ConfigurationError):
            ValueCacheConfig(pinned_fraction=1.0)
        with pytest.raises(ConfigurationError):
            ValueCacheConfig(hits_required=5, values_per_unit=4)

    def test_pin_threshold_must_be_reachable(self):
        # The 4-bit frequency counter saturates at 15, so a threshold of
        # 16 could never pin anything.
        with pytest.raises(ConfigurationError):
            ValueCacheConfig(entries=16, pin_threshold=16)
        cache = ValueCache(ValueCacheConfig(entries=16, pin_threshold=15))
        cache.observe(0xAA0)
        for _ in range(100):
            cache.probe(0xAA0)
        assert cache.stats.promotions == 1


class TestProbeAndObserve:
    def test_miss_then_hit(self):
        cache = ValueCache()
        assert cache.probe(0x12345670) == (False, False)
        cache.observe(0x12345670)
        assert cache.probe(0x12345670)[0]

    def test_masked_matching(self):
        """Near values (differing in the 4 LSBs) match."""
        cache = ValueCache()
        cache.observe(0x12345670)
        hit, _ = cache.probe(0x1234567F)
        assert hit

    def test_upper_bits_must_match(self):
        cache = ValueCache()
        cache.observe(0x12345670)
        assert not cache.probe(0x12345660)[0]

    def test_lru_eviction_of_transient(self):
        config = ValueCacheConfig(entries=8, pinned_fraction=0.0)
        cache = ValueCache(config)
        for v in range(8):
            cache.observe(v << 4)
        cache.observe(8 << 4)  # evicts value 0
        assert not cache.probe(0)[0]
        assert cache.probe(8 << 4)[0]

    def test_observe_is_idempotent_for_resident(self):
        cache = ValueCache(ValueCacheConfig(entries=4, pinned_fraction=0.0))
        cache.observe(0x10)
        cache.observe(0x10)
        assert len(cache) == 1


class TestPinning:
    def test_promotion_after_threshold_hits(self):
        config = ValueCacheConfig(entries=16, pin_threshold=3)
        cache = ValueCache(config)
        cache.observe(0xAA0)
        for _ in range(3):
            cache.probe(0xAA0)
        assert 0xAA0 in cache.pinned_values()
        assert cache.stats.promotions == 1

    def test_pinned_survive_transient_churn(self):
        config = ValueCacheConfig(entries=8, pinned_fraction=0.25,
                                  pin_threshold=2)
        cache = ValueCache(config)
        cache.observe(0xAA0)
        cache.probe(0xAA0)
        cache.probe(0xAA0)
        assert 0xAA0 in cache.pinned_values()
        for v in range(1, 100):  # flood the transient region
            cache.observe(v << 4)
        assert cache.probe(0xAA0) == (True, True)

    def test_pinned_region_capacity_respected(self):
        config = ValueCacheConfig(entries=8, pinned_fraction=0.25,
                                  pin_threshold=1)
        cache = ValueCache(config)  # pinned capacity = 2
        for v in range(5):
            cache.observe(v << 4)
            cache.probe(v << 4)
        assert len(cache.pinned_values()) <= 2


class TestUnitVerification:
    """Each 128-bit unit of a sector passes on its own hit count; a
    sector of two identical units passes exactly when the unit does."""

    def test_all_hits_pass(self):
        cache = ValueCache()
        cache.observe_many([0x10, 0x20, 0x30, 0x40])
        assert cache.verify_sector([0x10, 0x20, 0x30, 0x40] * 2)
        assert cache.stats.hits == 8

    def test_three_of_four_passes(self):
        """Eq. 1 solution: x = 3 suffices."""
        cache = ValueCache()
        cache.observe_many([0x10, 0x20, 0x30])
        assert cache.verify_sector([0x10, 0x20, 0x30, 0xDEAD0000] * 2)

    def test_two_of_four_fails(self):
        cache = ValueCache()
        cache.observe_many([0x10, 0x20])
        assert not cache.verify_sector(
            [0x10, 0x20, 0xBEEF0000, 0xDEAD0000] * 2
        )

    def test_unit_size_enforced(self):
        with pytest.raises(ValueError):
            ValueCache().fill_run([[1, 2, 3]])
        with pytest.raises(ValueError):
            ValueCache().writeback_run([[1, 2, 3]])

    def test_ragged_run_changes_nothing(self):
        """A run is checked whole before its first sector is probed."""
        cache = ValueCache()
        cache.observe_many([0x10, 0x20, 0x30, 0x40])
        before = cache.state_summary()
        for run in (cache.fill_run, cache.writeback_run):
            with pytest.raises(ValueError):
                run([[0x10, 0x20, 0x30, 0x40] * 2, None, [1, 2, 3]])
            assert cache.state_summary() == before


class TestSectorVerification:
    def test_both_halves_must_pass(self):
        """Paper: every 128-bit unit must pass independently."""
        cache = ValueCache()
        cache.observe_many([0x10, 0x20, 0x30, 0x40])
        good_half = [0x10, 0x20, 0x30, 0x40]
        bad_half = [0x50000000, 0x60000000, 0x70000000, 0x80000000]
        assert not cache.verify_sector(good_half + bad_half)
        assert cache.verify_sector(good_half + good_half)

    def test_stats_track_outcomes(self):
        cache = ValueCache()
        cache.observe_many([0x10, 0x20, 0x30, 0x40])
        cache.verify_sector([0x10, 0x20, 0x30, 0x40] * 2)
        cache.verify_sector([0x99990000] * 8)
        assert cache.stats.sectors_verified == 1
        assert cache.stats.sectors_failed == 1
        assert cache.stats.sector_verify_rate == pytest.approx(0.5)

    def test_ragged_sector_rejected(self):
        with pytest.raises(ValueError):
            ValueCache().verify_sector([1, 2, 3, 4, 5])


class TestWriteVerifiability:
    def test_pinned_hits_make_write_verifiable(self):
        config = ValueCacheConfig(entries=16, pin_threshold=1)
        cache = ValueCache(config)
        for v in (0x10, 0x20, 0x30):
            cache.observe(v)
            cache.probe(v)  # promote
        values = [0x10, 0x20, 0x30, 0x40] * 2
        assert cache.write_verifiable(values)

    def test_transient_hits_are_not_enough(self):
        """Transient entries may be evicted before the read-back, so
        they give no guarantee (paper Fig. 11, right side)."""
        cache = ValueCache()  # default pin_threshold high
        cache.observe_many([0x10, 0x20, 0x30, 0x40])
        assert not cache.write_verifiable([0x10, 0x20, 0x30, 0x40] * 2)

    def test_write_check_does_not_mutate(self):
        config = ValueCacheConfig(entries=16, pin_threshold=1)
        cache = ValueCache(config)
        cache.observe(0x10)
        probes_before = cache.stats.probes
        cache.write_verifiable([0x10] * 8)
        assert cache.stats.probes == probes_before


def reference_verify(cache, keys):
    """A fill's check through the per-value probe: every value of a unit
    is probed, and the first unit short of ``hits_required`` ends the
    sector."""
    per_unit = cache.config.values_per_unit
    cache.stats.sectors_checked += 1
    for start in range(0, len(keys), per_unit):
        hits = sum(cache.probe(key)[0] for key in keys[start:start + per_unit])
        if hits < cache.config.hits_required:
            cache.stats.sectors_failed += 1
            return False
    cache.stats.sectors_verified += 1
    return True


def reference_write_verifiable(cache, keys):
    """A writeback's check from the pinned set: every unit needs
    ``hits_required`` pinned values."""
    pinned = set(cache.pinned_values())
    per_unit = cache.config.values_per_unit
    return all(
        sum(key in pinned for key in keys[start:start + per_unit])
        >= cache.config.hits_required
        for start in range(0, len(keys), per_unit)
    )


def reference_run(cache, is_read, keys_list):
    """One run through the per-value probe/observe: reads verify then
    observe, writes observe then check pinned verifiability. Returns
    what the run methods return."""
    mac_rows = []
    passed = failed = 0
    for i, keys in enumerate(keys_list):
        if keys is None:
            mac_rows.append(i)
            continue
        if is_read:
            ok = reference_verify(cache, keys)
            for key in keys:
                cache.observe(key)
        else:
            for key in keys:
                cache.observe(key)
            ok = reference_write_verifiable(cache, keys)
        if ok:
            passed += 1
        else:
            failed += 1
            mac_rows.append(i)
    if is_read:
        return mac_rows, passed, failed
    return mac_rows, passed


#: Masked keys (low four bits clear), so the per-value methods probe
#: exactly these keys. The pool is larger than any transient region the
#: property draws (at most 64 entries), so a sector can insert into a
#: full region and trim inside itself; a small ``distinct`` keeps a few
#: keys hot enough to saturate their frequency counters.
ORACLE_KEYS = [0x1230 + 0x100 * i for i in range(80)]

_PICK = st.integers(min_value=0, max_value=len(ORACLE_KEYS) - 1)

#: A sector of no, one or two units (or no image): one unit fits every
#: transient region drawn below, two do not fit the smallest.
_SECTOR = st.one_of(
    st.none(),
    st.just([]),
    st.lists(_PICK, min_size=4, max_size=4),
    st.lists(_PICK, min_size=8, max_size=8),
)


@settings(max_examples=200, deadline=None)
@given(
    entries=st.integers(min_value=8, max_value=64),
    pinned_fraction=st.sampled_from((0.0, 0.25, 0.5)),
    pin_threshold=st.integers(min_value=1, max_value=15),
    distinct=st.integers(min_value=1, max_value=len(ORACLE_KEYS)),
    runs=st.lists(
        st.tuples(st.booleans(), st.lists(_SECTOR, min_size=1, max_size=12)),
        min_size=1, max_size=24,
    ),
)
def test_key_methods_match_per_value_reference(
    entries, pinned_fraction, pin_threshold, distinct, runs
):
    """``fill_run`` and ``writeback_run`` return what the per-value
    probe/observe decide sector by sector, and after every run leave the
    cache exactly where they do. A run holding a sector longer than the
    transient region is refused whole: ValueError, nothing changed."""
    config = ValueCacheConfig(entries=entries, pinned_fraction=pinned_fraction,
                              pin_threshold=pin_threshold)
    fast = ValueCache(config)
    ref = ValueCache(config)
    for step, (is_read, sectors) in enumerate(runs):
        keys_list = [
            None if picks is None
            else [ORACLE_KEYS[pick % distinct] for pick in picks]
            for picks in sectors
        ]
        run = fast.fill_run if is_read else fast.writeback_run
        if any(keys is not None and len(keys) > config.transient_capacity
               for keys in keys_list):
            before = fast.state_summary()
            with pytest.raises(ValueError):
                run(keys_list)
            assert fast.state_summary() == before, step
            continue
        assert run(keys_list) == reference_run(ref, is_read, keys_list), step
        assert fast.state_summary() == ref.state_summary(), step


class TestTinyTransientRegion:
    """A sector whose values outnumber the transient region: probing
    the whole sector before observing it evicts keys the sector itself
    touched, which one visit per key cannot reproduce, so the run
    methods refuse the sector."""

    A, B, C, D = (0x1000, 0x2000, 0x3000, 0x4000)
    X, Y, Z, W = (0x5000, 0x6000, 0x7000, 0x8000)

    def warmed(self):
        # Transient region of 4 entries, warmed by the per-value methods.
        cache = ValueCache(ValueCacheConfig(entries=8, pinned_fraction=0.5))
        for _ in range(3):
            keys = [self.A, self.B, self.C, self.D] * 2
            reference_verify(cache, keys)
            for key in keys:
                cache.observe(key)
        return cache

    def test_reference_evicts_a_key_of_the_sector(self):
        cache = self.warmed()
        sector = [self.A, self.B, self.C, self.X,
                  self.Y, self.Z, self.W, self.A]
        assert not reference_verify(cache, sector)
        for key in sector:
            cache.observe(key)
        # A was probed up to frequency 7, evicted by the sector's own
        # inserts and re-inserted: frequency 1.
        assert dict(cache.state_summary()[0])[self.A] == 1

    def test_run_methods_refuse_the_sector(self):
        cache = self.warmed()
        before = cache.state_summary()
        sector = [self.A, self.B, self.C, self.X,
                  self.Y, self.Z, self.W, self.A]
        for run in (cache.fill_run, cache.writeback_run):
            with pytest.raises(ValueError):
                run([sector])
            assert cache.state_summary() == before
