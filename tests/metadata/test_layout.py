"""Tests for partition-local metadata layouts (Fig. 14 designs)."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.metadata.layout import (
    GranularityDesign,
    MetadataLayout,
    compact_layout,
)

SECTORS = 4 * 1024 * 1024  # one 128 MiB partition


class TestCounterCoverage:
    def test_counter_sector_covers_32_data_sectors(self):
        layout = MetadataLayout(data_sectors=SECTORS)
        assert layout.counter_sector_index(0) == 0
        assert layout.counter_sector_index(31) == 0
        assert layout.counter_sector_index(32) == 1

    def test_counter_sector_count(self):
        layout = MetadataLayout(data_sectors=SECTORS)
        assert layout.counter_sectors == SECTORS // 32

    def test_counter_storage(self):
        layout = MetadataLayout(data_sectors=SECTORS)
        # 1 counter byte per 32 B data sector -> 1/32 of data size.
        assert layout.counter_storage_bytes() == SECTORS * 32 // 32

    def test_bounds_checked(self):
        layout = MetadataLayout(data_sectors=100)
        with pytest.raises(ValueError):
            layout.counter_sector_index(100)


class TestFetchGranularity:
    def test_coarse_design_fetches_whole_lines(self):
        layout = MetadataLayout(
            data_sectors=SECTORS, design=GranularityDesign.BLOCK_128
        )
        assert layout.counter_fetch_bytes == 128
        _line, mask = layout.counter_location(0)
        assert mask == 0b1111

    def test_fine_design_fetches_single_sectors(self):
        layout = MetadataLayout(
            data_sectors=SECTORS, design=GranularityDesign.ALL_32
        )
        assert layout.counter_fetch_bytes == 32
        _line, mask = layout.counter_location(0)
        assert bin(mask).count("1") == 1

    def test_fine_mask_tracks_sector_position(self):
        layout = MetadataLayout(
            data_sectors=SECTORS, design=GranularityDesign.ALL_32
        )
        # Data sectors 32..63 use counter sector 1 (second in line 0).
        _line, mask = layout.counter_location(40)
        assert mask == 0b0010

    def test_mac_always_sector_granular(self):
        """PSSM's sectored MAC caches work in every design."""
        for design in GranularityDesign:
            layout = MetadataLayout(data_sectors=SECTORS, design=design)
            _line, mask = layout.mac_location(0)
            assert bin(mask).count("1") == 1


class TestMacCoverage:
    def test_8B_tags_pack_4_per_sector(self):
        layout = MetadataLayout(data_sectors=SECTORS, mac_tag_bytes=8)
        assert layout.macs_per_sector == 4
        assert layout.mac_sectors == SECTORS // 4

    def test_4B_tags_pack_8_per_sector(self):
        layout = MetadataLayout(data_sectors=SECTORS, mac_tag_bytes=4)
        assert layout.macs_per_sector == 8

    def test_mac_storage_fraction(self):
        """8 B per 32 B sector = 25% of data size."""
        layout = MetadataLayout(data_sectors=SECTORS, mac_tag_bytes=8)
        assert layout.mac_storage_bytes() == SECTORS * 32 // 4

    def test_tags_must_pack(self):
        with pytest.raises(ConfigurationError):
            MetadataLayout(data_sectors=SECTORS, mac_tag_bytes=7)


class TestTreeGeometryByDesign:
    def test_design1_16ary_over_blocks(self):
        layout = MetadataLayout(
            data_sectors=SECTORS, design=GranularityDesign.BLOCK_128
        )
        geometry = layout.bmt_geometry()
        assert geometry.arity == 16
        assert geometry.node_bytes == 128
        assert geometry.num_leaves == layout.counter_sectors // 4

    def test_design2_more_leaves_same_nodes(self):
        layout = MetadataLayout(
            data_sectors=SECTORS, design=GranularityDesign.LEAF_32_TREE_128
        )
        geometry = layout.bmt_geometry()
        assert geometry.node_bytes == 128
        assert geometry.num_leaves == layout.counter_sectors

    def test_design3_quarter_arity(self):
        """Paper: 32B nodes hold a fourth of the previous arity."""
        layout = MetadataLayout(
            data_sectors=SECTORS, design=GranularityDesign.ALL_32
        )
        geometry = layout.bmt_geometry()
        assert geometry.arity == 4
        assert geometry.node_bytes == 32

    def test_design2_and_3_same_size_different_height(self):
        """Paper Fig. 14: designs 2 and 3 have equal leaf counts but
        design 3 grows vertically."""
        d2 = MetadataLayout(
            data_sectors=SECTORS, design=GranularityDesign.LEAF_32_TREE_128
        ).bmt_geometry()
        d3 = MetadataLayout(
            data_sectors=SECTORS, design=GranularityDesign.ALL_32
        ).bmt_geometry()
        assert d2.num_leaves == d3.num_leaves
        assert d3.height > d2.height

    def test_leaf_index_tracks_hashing_unit(self):
        coarse = MetadataLayout(
            data_sectors=SECTORS, design=GranularityDesign.BLOCK_128
        )
        fine = MetadataLayout(
            data_sectors=SECTORS, design=GranularityDesign.ALL_32
        )
        # Data sector 32 -> counter sector 1 -> same 128B leaf block 0
        # in the coarse design, its own leaf in the fine design.
        assert coarse.bmt_leaf_index(32) == 0
        assert fine.bmt_leaf_index(32) == 1


class TestCompactLayout:
    def test_compact_coverage(self):
        layout = compact_layout(SECTORS, counters_per_compact_block=64)
        assert layout.counter_sectors == SECTORS // 64

    def test_compact_tree_is_smaller(self):
        original = MetadataLayout(
            data_sectors=SECTORS, design=GranularityDesign.ALL_32
        )
        mirror = compact_layout(SECTORS, counters_per_compact_block=64)
        assert (
            mirror.bmt_geometry().storage_bytes
            < original.bmt_geometry().storage_bytes
        )


class TestUnitIndexLocations:
    """The batch phases cut runs on one integer per sector — the BMT
    leaf for counters, the MAC sector for MACs — and locate each run
    from it. That must be the scalar location of every sector in the
    run."""

    #: A partition size that is no multiple of any unit, so the last
    #: leaf and MAC sector are partial.
    DATA_SECTORS = 100_003

    @pytest.mark.parametrize("design", list(GranularityDesign))
    @pytest.mark.parametrize("mac_tag_bytes", [4, 8])
    # 32: the split counters; 64 and 128: the compact blocks.
    @pytest.mark.parametrize("sectors_per_counter_sector", [32, 64, 128])
    def test_unit_index_matches_scalar_locations(
        self, design, mac_tag_bytes, sectors_per_counter_sector
    ):
        layout = MetadataLayout(
            data_sectors=self.DATA_SECTORS,
            design=design,
            mac_tag_bytes=mac_tag_bytes,
            sectors_per_counter_sector=sectors_per_counter_sector,
        )
        rng = np.random.default_rng(7)
        sectors = np.concatenate((
            [0, self.DATA_SECTORS - 1],
            rng.integers(0, self.DATA_SECTORS, size=400),
        )).astype(np.int64)
        leaves = layout.bmt_leaf_indices(sectors).tolist()
        mac_sectors = layout.mac_sector_indices(sectors).tolist()
        counter_unit = layout.counter_unit_locator()
        mac_unit = layout.mac_unit_locator()
        geometry = layout.bmt_geometry()
        for sector, leaf, mac_sector in zip(sectors.tolist(), leaves,
                                            mac_sectors):
            assert leaf == layout.bmt_leaf_index(sector)
            assert 0 <= leaf < geometry.num_leaves
            assert counter_unit(leaf) == layout.counter_location(sector)
            assert mac_unit(mac_sector) == layout.mac_location(sector)
