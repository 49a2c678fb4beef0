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
from repro.workloads.benchmarks import build_trace
from repro.workloads.trace import Trace, TraceAccess
from repro.workloads.values import (
    ValueModel,
    ValueModelConfig,
    ValueReuseStudy,
    study_trace_values,
)


def make_model(**kwargs):
    return ValueModel(ValueModelConfig(**kwargs), RngStream(11))


def sector_bytes(matrix):
    """The 32-byte images of an image matrix, one per row."""
    return [row.tobytes() for row in matrix]


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
        study = ValueReuseStudy()
        for image in sector_bytes(model.sector_images(2000)):
            study.observe_sector(image)
        report = study.report()
        assert report["masked"] >= report["halves"] >= report["full"]

    def test_zero_locality_shows_no_reuse(self):
        model = make_model(sector_reuse=0.0, value_reuse=0.0)
        study = ValueReuseStudy()
        for image in sector_bytes(model.sector_images(500)):
            study.observe_sector(image)
        assert study.reuse_fraction("masked") < 0.05

    def test_total_locality_shows_high_reuse(self):
        model = make_model(sector_reuse=1.0, value_reuse=1.0,
                           near_perturb=0.0, pool_size=32)
        study = ValueReuseStudy()
        for image in sector_bytes(model.sector_images(500)):
            study.observe_sector(image)
        assert study.reuse_fraction("halves") > 0.8

    def test_writes_insert_but_do_not_count(self):
        study = ValueReuseStudy()
        image = b"\x01\x02\x03\x04" * 8
        study.observe_sector(image, is_read=False)
        assert study.sectors_seen == 0
        study.observe_sector(image, is_read=True)
        assert study.sectors_seen == 1
        assert study.reuse_fraction("halves") == 1.0

    def test_first_seen_sector_of_equal_values_scores_no_hit(self):
        """The first copy of a fresh value inserts it with the sector's
        own stamp, so the seven repeats after it miss."""
        study = ValueReuseStudy()
        study.observe_sector(struct.pack("<8I", *[0x1234] * 8))
        assert study.sectors_seen == 1
        assert study.reused == {"full": 0, "halves": 0, "masked": 0}

    def test_same_sector_read_again_scores_full(self):
        """A second read finds every value with an earlier sector's
        stamp."""
        study = ValueReuseStudy()
        image = struct.pack("<8I", *[0x1234] * 8)
        study.observe_sector(image)
        study.observe_sector(image)
        assert study.sectors_seen == 2
        assert study.reused == {"full": 1, "halves": 1, "masked": 1}

    def test_repeated_fresh_value_does_not_make_a_half(self):
        """Second half seen before, first half one fresh value four
        times: the first half has no hit, so neither ``halves`` nor
        ``full`` counts the sector."""
        study = ValueReuseStudy()
        seen = [0x100, 0x200, 0x300, 0x400]
        study.observe_sector(struct.pack("<8I", *seen, *seen), is_read=False)
        study.observe_sector(struct.pack("<8I", *[0x5000] * 4, *seen))
        assert study.sectors_seen == 1
        assert study.reused == {"full": 0, "halves": 0, "masked": 0}

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            ValueReuseStudy().reuse_fraction("quarters")

    def test_study_over_trace(self, bfs_trace):
        report = study_trace_values(bfs_trace)
        assert set(report) == {"full", "halves", "masked"}
        assert 0.0 < report["masked"] < 1.0


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
