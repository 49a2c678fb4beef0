"""Tests for value models and the reuse study."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bitops import split_values
from repro.common.errors import ConfigurationError
from repro.common.rng import RngStream
from repro.secure.value_cache import ValueCache, ValueCacheConfig
from repro.workloads.benchmarks import PAPER_ROSTER, build_trace
from repro.workloads.trace import Trace, TraceAccess
from repro.workloads.values import (
    _WINDOW_SECTORS,
    ValueModel,
    ValueModelConfig,
    _lru_hits,
    study_trace_values,
)

from .reuse_reference import MASK_4_LSBS, reference_study


def make_model(**kwargs):
    return ValueModel(ValueModelConfig(**kwargs), RngStream(11))


def sector_bytes(matrix):
    """The 32-byte images of an image matrix, one per row."""
    return [row.tobytes() for row in matrix]


def stream(images, writes=None):
    """A trace of one single-sector access per row of *images*, a
    ``(sectors, 8)`` matrix of 32-bit values; reads unless *writes*."""
    images = np.asarray(images, dtype="<u4").reshape(-1, 8)
    if writes is None:
        writes = np.zeros(len(images), dtype=bool)
    return Trace.from_columns(
        "stream", np.arange(len(images), dtype=np.int64),
        np.ones(len(images), dtype=np.uint8),
        np.asarray(writes, dtype=bool), images,
    )


class TestValueModel:
    def test_image_shape(self):
        images = make_model().sector_images(10)
        assert images.shape == (10, 8)
        assert images.dtype == np.dtype("<u4")
        assert all(len(image) == 32 for image in sector_bytes(images))

    def test_no_images(self):
        assert make_model().sector_images(0).shape == (0, 8)

    def test_determinism(self):
        a = ValueModel(ValueModelConfig(), RngStream(3)).sector_images(20)
        b = ValueModel(ValueModelConfig(), RngStream(3)).sector_images(20)
        assert sector_bytes(a) == sector_bytes(b)

    def test_zero_reuse_gives_mostly_unique_values(self):
        model = make_model(sector_reuse=0.0, value_reuse=0.0)
        images = sector_bytes(model.sector_images(100))
        values = {v for img in images for v in
                  [img[i:i+4] for i in range(0, 32, 4)]}
        assert len(values) > 700  # out of 800 draws

    def test_high_reuse_concentrates_values(self):
        model = make_model(sector_reuse=1.0, pool_size=32)
        images = sector_bytes(model.sector_images(100))
        values = {v for img in images for v in
                  [img[i:i+4] for i in range(0, 32, 4)]}
        # Pool of 32 values, perturbed in the low nibble only.
        assert len(values) < 32 * 16

    def test_group_sizes_must_sum(self):
        with pytest.raises(ConfigurationError):
            make_model().sector_images(5, group_sizes=[2, 2])

    def test_grouped_reuse_is_correlated(self):
        """Sectors of one access share the reuse decision: whole
        accesses are either pooled or unique."""
        model = make_model(sector_reuse=0.5, value_reuse=0.0,
                           near_perturb=0.0, pool_size=16)
        images = sector_bytes(model.sector_images(400, group_sizes=[4] * 100))
        pool = set()
        # Learn the pool from a big sample of pooled sectors.
        for img in images:
            for i in range(0, 32, 4):
                pool.add(img[i:i+4])
        groups_mixed = 0
        for g in range(100):
            sector_pooled = []
            for s in range(4):
                img = images[4 * g + s]
                vals = [img[i:i+4] for i in range(0, 32, 4)]
                # A pooled sector repeats pool values heavily; a unique
                # sector has 8 distinct fresh values.
                sector_pooled.append(len(set(vals)) < 8)
            if len(set(sector_pooled)) > 1:
                groups_mixed += 1
        # Correlation: most groups are uniformly pooled or uniformly not.
        assert groups_mixed < 30

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            ValueModelConfig(sector_reuse=1.5)
        with pytest.raises(ConfigurationError):
            ValueModelConfig(pool_size=2)


class TestReuseStudy:
    def test_scenario_ordering(self):
        """Paper Fig. 9: masked >= halves >= full, always."""
        model = make_model(sector_reuse=0.5, near_perturb=0.5)
        report = study_trace_values(stream(model.sector_images(2000)))
        assert report["masked"] >= report["halves"] >= report["full"]

    def test_zero_locality_shows_no_reuse(self):
        model = make_model(sector_reuse=0.0, value_reuse=0.0)
        report = study_trace_values(stream(model.sector_images(500)))
        assert report["masked"] < 0.05

    def test_total_locality_shows_high_reuse(self):
        model = make_model(sector_reuse=1.0, value_reuse=1.0,
                           near_perturb=0.0, pool_size=32)
        report = study_trace_values(stream(model.sector_images(500)))
        assert report["halves"] > 0.8

    def test_writes_insert_but_do_not_count(self):
        """A written sector puts its values in but is not scored: the read
        after it is the one sector seen, and it is reused."""
        image = [0x04030201] * 8
        report = study_trace_values(stream([image, image], [True, False]))
        assert report == {"full": 1.0, "halves": 1.0, "masked": 1.0}

    def test_first_seen_sector_of_equal_values_scores_no_hit(self):
        """The first copy of a fresh value misses, and so do the seven
        repeats after it in the same sector. Of the two reads here only
        the second, of a sector written before, scores."""
        written = [0x100, 0x200, 0x300, 0x400] * 2
        report = study_trace_values(stream(
            [written, [0x1234] * 8, written], [True, False, False]
        ))
        assert report == {"full": 0.5, "halves": 0.5, "masked": 0.5}

    def test_same_sector_read_again_scores_full(self):
        """A second read finds every value resident before its sector."""
        image = [0x1234] * 8
        report = study_trace_values(stream([image, image]))
        assert report == {"full": 0.5, "halves": 0.5, "masked": 0.5}

    def test_repeated_fresh_value_does_not_make_a_half(self):
        """Second half seen before, first half one fresh value four
        times: the first half has no hit, so neither ``halves`` nor
        ``full`` counts that sector; the read of the written sector
        after it does."""
        seen = [0x100, 0x200, 0x300, 0x400]
        report = study_trace_values(stream(
            [seen + seen, [0x5000] * 4 + seen, seen + seen],
            [True, False, False],
        ))
        assert report == {"full": 0.5, "halves": 0.5, "masked": 0.5}

    def test_nonpositive_cache_rejected(self):
        for entries in (0, -1):
            with pytest.raises(ConfigurationError):
                study_trace_values(stream([[1] * 8]), cache_entries=entries)

    def test_no_images_scores_nothing(self):
        trace = build_trace("bfs", length=200, with_values=False)
        assert study_trace_values(trace) == {
            "full": 0.0, "halves": 0.0, "masked": 0.0}

    def test_study_over_trace(self, bfs_trace):
        report = study_trace_values(bfs_trace)
        assert set(report) == {"full", "halves", "masked"}
        assert 0.0 < report["masked"] < 1.0


@pytest.mark.parametrize("seed", [2023, 7])
@pytest.mark.parametrize("name", PAPER_ROSTER)
def test_study_matches_reference_on_roster(name, seed):
    """Every benchmark of the paper's roster scores exactly what the
    stamp-LRU reference scores."""
    trace = build_trace(name, length=2000, seed=seed)
    assert study_trace_values(trace) == reference_study(trace).report()


def _key_stream(seed, sectors, pool, fresh=0.0):
    """*sectors* rows of 8 keys: from a pool of *pool* keys, Zipf-skewed
    so that reuse distances spread around any capacity, and a *fresh*
    share of keys that almost surely never come back."""
    rng = np.random.default_rng(seed)
    keys = (rng.zipf(1.3, (sectors, 8)) % pool).astype(np.uint32)
    keys <<= np.uint32(4)
    keys |= rng.integers(0, 4, (sectors, 8)).astype(np.uint32)
    new = rng.random((sectors, 8)) < fresh
    keys[new] = rng.integers(1 << 20, 1 << 32, int(new.sum()),
                             dtype=np.uint64).astype(np.uint32)
    return keys


def _bits(hit_rows):
    """A hit matrix's rows as the reference's hit bits."""
    return [int(bits) for bits in np.packbits(hit_rows, axis=1).ravel()]


_CAPACITIES = [1, 3, 7, 8, 9, 31, 64, 255, 512, 1024]


@pytest.mark.parametrize("capacity", _CAPACITIES)
@pytest.mark.parametrize("pool, fresh", [(12, 0.0), (90, 0.1), (700, 0.3)])
def test_long_stream_matches_reference(capacity, pool, fresh):
    """Streams over several windows, with capacities below one sector's
    8 values up to 1,024, small pools, and reads and writes mixed:
    the counts, every value's hit and the final resident keys all
    equal the reference's."""
    sectors = 3 * _WINDOW_SECTORS + 123
    keys = _key_stream(capacity * 1000 + pool, sectors, pool, fresh)
    writes = np.random.default_rng(pool).random(sectors) < 0.3
    trace = stream(keys, writes)
    reference = reference_study(trace, cache_entries=capacity)
    assert (study_trace_values(trace, cache_entries=capacity)
            == reference.report())

    exact_hits, masked_hits = [], []
    exact = masked = np.empty(0, dtype=np.uint32)
    half = sectors // 2
    cuts = [0, 1, 1, 300, half, half + 1, sectors - 9, sectors]  # one empty
    for start, stop in zip(cuts, cuts[1:]):
        hits, exact = _lru_hits(keys[start:stop], exact, capacity)
        exact_hits.append(hits)
        hits, masked = _lru_hits(
            keys[start:stop] & np.uint32(MASK_4_LSBS), masked, capacity)
        masked_hits.append(hits)
    assert _bits(np.concatenate(exact_hits)) == reference.hit_bits
    assert _bits(np.concatenate(masked_hits)) == reference.masked_hit_bits
    assert (exact.tolist(), masked.tolist()) == reference.resident()


@pytest.mark.parametrize("capacity", [1, 8, 512])
@pytest.mark.parametrize("writes", [True, False])
def test_one_sided_stream_matches_reference(capacity, writes):
    """An all-write stream scores no sector, an all-read one every
    sector."""
    sectors = 2 * _WINDOW_SECTORS + 7
    keys = _key_stream(capacity, sectors, 150, fresh=0.1)
    trace = stream(keys, np.full(sectors, writes))
    reference = reference_study(trace, cache_entries=capacity)
    report = study_trace_values(trace, cache_entries=capacity)
    assert report == reference.report()
    assert reference.sectors_seen == (0 if writes else sectors)


def three_cache_study(trace, cache_entries=512):
    """The study with one cache per scenario, each probed by its rule."""

    def make_cache(mask_bits):
        return ValueCache(ValueCacheConfig(
            entries=cache_entries, mask_bits=mask_bits,
            pinned_fraction=0.0, hits_required=3,
        ))

    def reused(scenario, cache, values):
        if scenario == "full":
            return all(cache.probe(v)[0] for v in values)
        for half in (values[:4], values[4:]):
            if sum(1 for v in half if cache.probe(v)[0]) < 3:
                return False
        return True

    caches = {"full": make_cache(0), "halves": make_cache(0),
              "masked": make_cache(4)}
    counts = dict.fromkeys(caches, 0)
    seen = 0
    for access in trace:
        if access.values is None:
            continue
        for _slot, image in access.values:
            values = split_values(image, 4)
            seen += not access.write
            for scenario, cache in caches.items():
                if not access.write and reused(scenario, cache, values):
                    counts[scenario] += 1
                cache.observe_many(values)
    return {s: counts[s] / seen if seen else 0.0 for s in caches}


@pytest.mark.parametrize("name", ["bfs", "color", "lbm"])
def test_study_matches_three_cache_reference(name):
    """One unmasked cache scores ``full`` and ``halves`` as two did."""
    trace = build_trace(name, length=1000, seed=2023)
    assert study_trace_values(trace) == three_cache_study(trace)


@st.composite
def _values(draw):
    """Mostly 24 values that mask to 6 keys, and one in ten arbitrary:
    exact and near duplicates, inside a sector and across sectors, and
    misses all occur, and a 1-16 entry cache evicts constantly."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.integers(0, 2**32 - 1))
    return draw(st.integers(0, 5)) << 4 | draw(st.integers(0, 3))


_images = st.lists(_values(), min_size=8, max_size=8).map(
    lambda vs: struct.pack("<8I", *vs)
)
_accesses = st.builds(
    lambda write, images: TraceAccess(
        0, (1 << len(images)) - 1, write, list(enumerate(images))
    ),
    st.booleans(),
    st.lists(_images, min_size=1, max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(trace=st.lists(_accesses, max_size=40),
       entries=st.integers(min_value=1, max_value=16))
def test_small_study_cache_matches_three_cache_reference(trace, entries):
    """Capacities that evict within a sector, where LRU membership over
    the observe stream must still equal probe-then-observe caches."""
    assert (study_trace_values(Trace("drawn", trace), cache_entries=entries)
            == three_cache_study(trace, cache_entries=entries))


_partly_imaged = st.builds(
    lambda write, images, keep: TraceAccess(
        0, (1 << len(images)) - 1, write,
        [(slot, image) for slot, image in enumerate(images)
         if keep[slot % len(keep)]],
    ),
    st.booleans(),
    st.lists(_images, min_size=1, max_size=4),
    st.lists(st.booleans(), min_size=1, max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(trace=st.lists(st.one_of(_accesses, _partly_imaged), max_size=40),
       entries=st.integers(min_value=1, max_value=16))
def test_study_skips_sectors_without_an_image(trace, entries):
    """Sectors imported without an image (``-``) are neither scored nor
    observed, as the reference, which reads only the records' images."""
    assert (study_trace_values(Trace("drawn", trace), cache_entries=entries)
            == three_cache_study(trace, cache_entries=entries))
