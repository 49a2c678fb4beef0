"""Tests for the sectored set-associative cache."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.mem.cache import CacheConfig, Eviction, SectoredCache


def make_cache(size=2048, ways=4, sectored=True):
    return SectoredCache(
        CacheConfig(name="t", size_bytes=size, ways=ways, sectored=sectored)
    )


class TestConfigValidation:
    def test_valid_default(self):
        assert make_cache().config.num_lines == 16

    def test_size_must_be_line_multiple(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(name="t", size_bytes=2000)

    def test_lines_must_divide_into_ways(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(name="t", size_bytes=3 * 128, ways=2)

    def test_sector_must_divide_line(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(name="t", size_bytes=2048, sector_bytes=48)

    def test_non_power_of_two_sets_allowed(self):
        """Volta L2 banks have 96 sets."""
        config = CacheConfig(name="l2", size_bytes=192 * 1024, ways=16)
        assert config.num_sets == 96
        SectoredCache(config)  # must construct fine


class TestHitMissBasics:
    def test_cold_miss_then_hit(self):
        cache = make_cache()
        first = cache.access(0x0, 0b0001)
        assert first.miss_mask == 0b0001 and first.hit_mask == 0
        second = cache.access(0x0, 0b0001)
        assert second.hit_mask == 0b0001 and second.miss_mask == 0

    def test_partial_sector_miss(self):
        cache = make_cache()
        cache.access(0x0, 0b0011)
        result = cache.access(0x0, 0b1111)
        assert result.hit_mask == 0b0011
        assert result.miss_mask == 0b1100

    def test_sector_isolation_between_lines(self):
        cache = make_cache()
        cache.access(0x0, 0b1111)
        result = cache.access(0x80, 0b1111)
        assert result.miss_mask == 0b1111

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            make_cache().access(0x0, 0b0000)

    def test_mask_is_truncated_to_line(self):
        cache = make_cache()
        result = cache.access(0x0, 0b10001)  # bit 4 is out of range
        assert result.miss_mask == 0b0001


class TestNonSectored:
    def test_whole_line_fetched_on_any_access(self):
        cache = make_cache(sectored=False)
        result = cache.access(0x0, 0b0001)
        assert result.miss_mask == 0b1111

    def test_subsequent_sectors_hit(self):
        cache = make_cache(sectored=False)
        cache.access(0x0, 0b0001)
        assert cache.access(0x0, 0b1000).is_full_hit


class TestDirtyAndEviction:
    def test_write_marks_dirty(self):
        cache = make_cache()
        cache.access(0x0, 0b0011, write=True)
        eviction = cache.invalidate(0x0)
        assert eviction is not None and eviction.dirty_mask == 0b0011

    def test_clean_eviction_returns_none(self):
        cache = make_cache()
        cache.access(0x0, 0b1111, write=False)
        assert cache.invalidate(0x0) is None

    def test_lru_victim_is_oldest(self):
        cache = make_cache(size=4 * 128, ways=4)  # one set of 4 ways
        for i in range(4):
            cache.access(i * 128 * cache.config.num_sets, 0b1111)
        # Touch line 0 to refresh it, then insert a 5th line.
        cache.access(0, 0b1111)
        result = cache.access(4 * 128 * cache.config.num_sets, 0b1111)
        assert not cache.contains(128 * cache.config.num_sets)  # line 1 evicted
        assert cache.contains(0)
        del result

    def test_eviction_carries_dirty_sectors(self):
        cache = make_cache(size=4 * 128, ways=4)
        stride = 128 * cache.config.num_sets
        cache.access(0, 0b0101, write=True)
        for i in range(1, 4):
            cache.access(i * stride, 0b0001)
        result = cache.access(4 * stride, 0b0001)
        assert len(result.evictions) == 1
        assert result.evictions[0].line_addr == 0
        assert result.evictions[0].dirty_mask == 0b0101

    def test_dirty_sector_count_counts_every_mask(self):
        # Masks of up to four sectors come from a table, wider ones
        # count their bits; both must equal a plain bit count.
        for mask in range(1 << 8):
            eviction = Eviction(0, mask)
            assert eviction.dirty_sector_count == bin(mask).count("1")

    def test_flush_returns_all_dirty(self):
        cache = make_cache()
        cache.access(0x0, 0b0001, write=True)
        cache.access(0x100, 0b0010, write=True)
        cache.access(0x200, 0b0100, write=False)
        dirty = cache.flush()
        assert {(e.line_addr, e.dirty_mask) for e in dirty} == {
            (0x0, 0b0001),
            (0x100, 0b0010),
        }
        assert cache.resident_lines() == {}


class TestStats:
    def test_sector_hit_accounting(self):
        cache = make_cache()
        cache.access(0x0, 0b1111)   # 4 misses
        cache.access(0x0, 0b0011)   # 2 hits
        assert cache.stats.sector_misses == 4
        assert cache.stats.sector_hits == 2
        assert cache.stats.sector_hit_rate == pytest.approx(2 / 6)

    def test_fill_does_not_count_as_access(self):
        cache = make_cache()
        cache.fill(0x0, 0b1111)
        assert cache.stats.accesses == 0
        assert cache.access(0x0, 0b1111).is_full_hit

    def test_mark_dirty_only_touches_resident(self):
        cache = make_cache()
        cache.access(0x0, 0b0011)
        cache.mark_dirty(0x0, 0b1111)
        eviction = cache.invalidate(0x0)
        assert eviction.dirty_mask == 0b0011  # only resident sectors


class TestSetHashing:
    def test_power_of_two_strides_spread_over_sets(self):
        """Large power-of-two strides must not all land in one set
        (the integrity-tree-level pathology)."""
        cache = make_cache(size=2048, ways=4)  # 4 sets
        sets = {cache._set_index(i * (1 << 20)) for i in range(16)}
        assert len(sets) > 1

    def test_same_line_same_set(self):
        cache = make_cache()
        assert cache._set_index(0x1280) == cache._set_index(0x1280)


def digit_fold(line_addr, sets, line_bytes=128):
    """The set index as a loop over the line index's base-``sets``
    digits: the reference for the shift-ladder fold."""
    line = line_addr // line_bytes
    if sets == 1:
        return 0
    folded = 0
    while line:
        folded ^= line % sets
        line //= sets
    return folded % sets


#: Set counts with and without a shift ladder: 2^b for b a power of
#: two, 8 (b = 3) and Volta's 96-set L2 banks.
_SET_COUNTS = (1, 2, 4, 8, 16, 96, 256)


@settings(max_examples=300, deadline=None)
@given(line_addr=st.integers(min_value=0, max_value=2**72))
@example(line_addr=(2**64 - 1) * 128)
@example(line_addr=2**64 * 128)
@example(line_addr=2**70)
def test_set_index_matches_digit_fold(line_addr):
    """Line indices below 2^64 take the ladder on 2, 4, 16 and 256
    sets; larger ones, and the other counts, take the digit loop."""
    for sets in _SET_COUNTS:
        cache = make_cache(size=sets * 4 * 128, ways=4)
        assert cache.config.num_sets == sets
        assert cache._set_index(line_addr) == digit_fold(line_addr, sets)
