"""Tests for BMT geometry and cached traversal."""

import pytest

from repro.common.errors import ConfigurationError
from repro.mem.cache import CacheConfig, SectoredCache
from repro.mem.traffic import Stream, TrafficCounter
from repro.metadata.bmt import BmtGeometry, BmtTraversal


def make_traversal(geometry, cache_bytes=2048, lazy=True):
    traffic = TrafficCounter()
    cache = SectoredCache(CacheConfig(name="bmt", size_bytes=cache_bytes))
    return BmtTraversal(geometry, cache, traffic, lazy_update=lazy), traffic


class TestGeometry:
    def test_paper_example_heights(self):
        """Paper Section IV-E: 8-ary trees with 128 and 512 leaves both
        have height 4 (128-16-2-1 and 512-64-8-1)."""
        assert BmtGeometry(128, arity=8).level_sizes == (16, 2, 1)
        assert BmtGeometry(512, arity=8).level_sizes == (64, 8, 1)

    def test_16ary_vs_4ary_depth(self):
        """Shrinking nodes from 128B (16-ary) to 32B (4-ary) grows the
        tree taller — the Fig. 14 trade-off."""
        coarse = BmtGeometry(32768, arity=16, node_bytes=128)
        fine = BmtGeometry(131072, arity=4, node_bytes=32)
        assert fine.height > coarse.height

    def test_storage_growth_matches_paper(self):
        """Section IV-F: fine granularity takes BMT storage to ~1.33 MB
        per partition-set (we verify the same order of magnitude)."""
        fine = BmtGeometry(131072, arity=4, node_bytes=32)
        assert fine.storage_bytes == pytest.approx(1.33 * 1024**2, rel=0.05)

    def test_node_must_hold_arity_hashes(self):
        with pytest.raises(ConfigurationError):
            BmtGeometry(64, arity=16, node_bytes=32)  # 16 x 8B > 32B

    def test_degenerate_single_leaf(self):
        assert BmtGeometry(1, arity=4, node_bytes=32).level_sizes == (1,)

    def test_invalid_geometry(self):
        with pytest.raises(ConfigurationError):
            BmtGeometry(0)
        with pytest.raises(ConfigurationError):
            BmtGeometry(8, arity=1)


class TestNodeAddressing:
    def test_ancestor_indices(self):
        geometry = BmtGeometry(64, arity=4, node_bytes=32)
        assert geometry.node_index(17, 1) == 4
        assert geometry.node_index(17, 2) == 1
        assert geometry.node_index(17, 3) == 0

    def test_addresses_are_level_packed(self):
        geometry = BmtGeometry(64, arity=4, node_bytes=32)
        assert geometry.node_address(0, 1) == 0
        assert geometry.node_address(4, 1) == 32
        # Level 2 starts after the 16 level-1 nodes.
        assert geometry.node_address(0, 2) == 16 * 32

    def test_locate_inverts_node_address(self):
        geometry = BmtGeometry(256, arity=4, node_bytes=32)
        for leaf, level in [(0, 1), (100, 1), (255, 2), (9, 3)]:
            addr = geometry.node_address(leaf, level)
            found_level, found_node = geometry.locate(addr)
            assert found_level == level
            assert found_node == geometry.node_index(leaf, level)

    def test_locate_rejects_out_of_tree(self):
        geometry = BmtGeometry(16, arity=4, node_bytes=32)
        with pytest.raises(ValueError):
            geometry.locate(geometry.storage_bytes + 64)

    def test_bounds_checked(self):
        geometry = BmtGeometry(16, arity=4)
        with pytest.raises(ValueError):
            geometry.node_index(16, 1)
        with pytest.raises(ValueError):
            geometry.node_index(0, 99)


class TestVerificationWalk:
    def test_cold_walk_fetches_to_root(self):
        geometry = BmtGeometry(128, arity=8, node_bytes=128)
        traversal, traffic = make_traversal(geometry)
        fetched = traversal.verify_leaf(0)
        assert fetched == 2  # levels 1 and 2; root is on-chip
        assert traffic.bytes_for(Stream.BMT_READ) == 2 * 128

    def test_warm_walk_stops_at_first_hit(self):
        geometry = BmtGeometry(128, arity=8, node_bytes=128)
        traversal, traffic = make_traversal(geometry)
        traversal.verify_leaf(0)
        before = traffic.bytes_for(Stream.BMT_READ)
        assert traversal.verify_leaf(0) == 0
        assert traffic.bytes_for(Stream.BMT_READ) == before

    def test_sibling_leaf_shares_parent(self):
        geometry = BmtGeometry(128, arity=8, node_bytes=128)
        traversal, _ = make_traversal(geometry)
        traversal.verify_leaf(0)
        assert traversal.verify_leaf(1) == 0  # same level-1 node

    def test_distant_leaf_shares_only_upper_levels(self):
        geometry = BmtGeometry(128, arity=8, node_bytes=128)
        traversal, _ = make_traversal(geometry)
        traversal.verify_leaf(0)
        # Leaf 64: different L1 node (64//8=8 vs 0), different L2 node
        # (8//8=1 vs 0) -> both fetched; root on-chip.
        assert traversal.verify_leaf(64) == 2

    def test_root_only_tree_never_fetches(self):
        geometry = BmtGeometry(4, arity=4, node_bytes=32)
        traversal, traffic = make_traversal(geometry)
        assert traversal.verify_leaf(3) == 0
        assert traffic.bytes_for(Stream.BMT_READ) == 0
        assert traversal.root_verifications == 1


class TestLazyUpdate:
    def test_update_dirties_without_immediate_write(self):
        geometry = BmtGeometry(128, arity=8, node_bytes=128)
        traversal, traffic = make_traversal(geometry)
        traversal.update_leaf(0)
        assert traffic.bytes_for(Stream.BMT_WRITE) == 0  # lazy: in cache

    def test_flush_writes_dirty_path(self):
        geometry = BmtGeometry(128, arity=8, node_bytes=128)
        traversal, traffic = make_traversal(geometry)
        traversal.update_leaf(0)
        traversal.flush()
        # Level-1 node written; propagation dirties and writes level 2.
        assert traffic.bytes_for(Stream.BMT_WRITE) == 2 * 128

    def test_flush_is_idempotent(self):
        geometry = BmtGeometry(128, arity=8, node_bytes=128)
        traversal, traffic = make_traversal(geometry)
        traversal.update_leaf(5)
        traversal.flush()
        first = traffic.bytes_for(Stream.BMT_WRITE)
        traversal.flush()
        assert traffic.bytes_for(Stream.BMT_WRITE) == first

    def test_eager_update_writes_immediately(self):
        geometry = BmtGeometry(128, arity=8, node_bytes=128)
        traversal, traffic = make_traversal(geometry, lazy=False)
        traversal.update_leaf(0)
        assert traffic.bytes_for(Stream.BMT_WRITE) > 0

    def test_lazy_beats_eager_on_repeated_updates(self):
        """The rationale for the lazy scheme: repeated updates to the
        same leaf coalesce in the cache."""
        geometry = BmtGeometry(512, arity=8, node_bytes=128)
        lazy, lazy_traffic = make_traversal(geometry, lazy=True)
        eager, eager_traffic = make_traversal(geometry, lazy=False)
        for _ in range(50):
            lazy.update_leaf(7)
            eager.update_leaf(7)
        lazy.flush()
        lazy_bytes = lazy_traffic.bytes_for(Stream.BMT_WRITE)
        eager_bytes = eager_traffic.bytes_for(Stream.BMT_WRITE)
        assert lazy_bytes < eager_bytes

    def test_whole_line_lazy_rejects_a_line_holding_node_and_parent(self):
        """A whole-line cache dirties every node of a line together.
        With 20 leaves, level-1 node 4 and its parent share the line at
        byte 128, so a lazy flush would re-dirty that line forever."""
        geometry = BmtGeometry(20, arity=4, node_bytes=32)
        whole_line = SectoredCache(
            CacheConfig(name="bmt", size_bytes=512, sectored=False)
        )
        with pytest.raises(ConfigurationError, match="level-1 node 4"):
            BmtTraversal(geometry, whole_line, TrafficCounter())
        eager = BmtTraversal(geometry, whole_line, TrafficCounter(),
                             lazy_update=False)
        eager.update_leaf(19)
        eager.flush()
        coarse = BmtGeometry(20, arity=16, node_bytes=128)
        BmtTraversal(coarse, whole_line, TrafficCounter()).flush()


class TestFineGranularityFetch:
    def test_32B_nodes_fetch_single_sectors(self):
        geometry = BmtGeometry(1024, arity=4, node_bytes=32)
        traversal, traffic = make_traversal(geometry)
        traversal.verify_leaf(0)
        reads = traffic.bytes_for(Stream.BMT_READ)
        transactions = traffic.transactions_for(Stream.BMT_READ)
        assert reads == transactions * 32  # every fetch one sector

    def test_128B_nodes_fetch_whole_lines(self):
        geometry = BmtGeometry(1024, arity=16, node_bytes=128)
        traversal, traffic = make_traversal(geometry)
        fetched = traversal.verify_leaf(0)
        assert traffic.bytes_for(Stream.BMT_READ) == fetched * 128
