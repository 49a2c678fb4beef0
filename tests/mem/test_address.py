"""Tests for the address map and partition interleaving."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.mem.address import DEFAULT_ADDRESS_MAP, AddressMap


class TestGeometry:
    def test_default_volta_numbers(self):
        amap = DEFAULT_ADDRESS_MAP
        assert amap.sectors_per_line == 4
        assert amap.num_lines == 4 * 1024**3 // 128
        assert amap.lines_per_partition == amap.num_lines // 32
        assert amap.partition_bytes == 128 * 1024**2

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            AddressMap(num_partitions=3)
        with pytest.raises(ConfigurationError):
            AddressMap(line_bytes=96)
        with pytest.raises(ConfigurationError):
            AddressMap(sector_bytes=48, line_bytes=128)


class TestAddressArithmetic:
    def test_line_address_rounds_down(self):
        amap = DEFAULT_ADDRESS_MAP
        assert amap.line_address(0x1234) == 0x1200
        assert amap.line_address(0x1280) == 0x1280

    def test_sector_in_line(self):
        amap = DEFAULT_ADDRESS_MAP
        assert amap.sector_in_line(0x1200) == 0
        assert amap.sector_in_line(0x1220) == 1
        assert amap.sector_in_line(0x1240) == 2
        assert amap.sector_in_line(0x127F) == 3

    def test_sector_address(self):
        assert DEFAULT_ADDRESS_MAP.sector_address(0x1234) == 0x1220

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_ADDRESS_MAP.line_address(4 * 1024**3)
        with pytest.raises(ValueError):
            DEFAULT_ADDRESS_MAP.partition_of(-1)

    def test_iter_line_sector_addresses(self):
        sectors = list(DEFAULT_ADDRESS_MAP.iter_line_sector_addresses(0x1234))
        assert sectors == [0x1200, 0x1220, 0x1240, 0x1260]


class TestInterleaving:
    def test_partition_in_range(self):
        amap = DEFAULT_ADDRESS_MAP
        for line in range(0, 100):
            assert 0 <= amap.partition_of(line * 128) < 32

    def test_hashed_interleave_is_balanced(self):
        """Sequential lines should spread evenly over partitions."""
        amap = DEFAULT_ADDRESS_MAP
        counts = [0] * 32
        for line in range(32 * 64):
            counts[amap.partition_of(line * 128)] += 1
        assert max(counts) - min(counts) <= 8

    def test_modulo_interleave_without_hash(self):
        amap = AddressMap(interleave_hash=False)
        for line in range(100):
            assert amap.partition_of(line * 128) == line % 32

    def test_same_line_same_partition(self):
        amap = DEFAULT_ADDRESS_MAP
        assert amap.partition_of(0x1200) == amap.partition_of(0x127F)


class TestLocalAddressing:
    """PSSM partition-local metadata addressing."""

    def test_local_line_index_is_dense(self):
        amap = DEFAULT_ADDRESS_MAP
        assert amap.local_line_index(0) == 0
        assert amap.local_line_index(32 * 128) == 1
        assert amap.local_line_index(64 * 128) == 2

    def test_local_sector_index(self):
        amap = DEFAULT_ADDRESS_MAP
        assert amap.local_sector_index(0) == 0
        assert amap.local_sector_index(32) == 1
        assert amap.local_sector_index(32 * 128) == 4

    def test_local_index_bounded_by_partition(self):
        amap = DEFAULT_ADDRESS_MAP
        top = amap.memory_bytes - 32
        assert amap.local_sector_index(top) < amap.partition_bytes // 32

    @pytest.mark.parametrize("amap", [
        DEFAULT_ADDRESS_MAP,
        AddressMap(memory_bytes=1 << 20, num_partitions=8, line_bytes=256),
    ])
    def test_local_sector_indices_match_scalar(self, amap):
        addrs = [0, 32, 96, 32 * 128, 12345 * 32, amap.memory_bytes - 32,
                 amap.memory_bytes - 1, amap.line_bytes * 7 + 64]
        got = amap.local_sector_indices(np.array(addrs, dtype=np.int64))
        assert got.tolist() == [amap.local_sector_index(a) for a in addrs]
        assert amap.local_sector_indices(
            np.array([], dtype=np.int64)).tolist() == []

    def test_local_sector_indices_reject_first_address_outside(self):
        amap = DEFAULT_ADDRESS_MAP
        top = amap.memory_bytes
        with pytest.raises(ValueError, match=f"{top + 32:#x}"):
            amap.local_sector_indices(
                np.array([0, top + 32, -32, top], dtype=np.int64))
        with pytest.raises(ValueError, match="-0x20"):
            amap.local_sector_indices(np.array([64, -32], dtype=np.int64))


def digit_fold(amap, address):
    """The partition of *address* by the per-address digit loop: the
    line index's ``log2(num_partitions)``-bit digits XORed together,
    or the index modulo the partition count without hashing."""
    line = address // amap.line_bytes
    if not amap.interleave_hash:
        return line % amap.num_partitions
    bits = amap.num_partitions.bit_length() - 1
    folded = 0
    while line:
        folded ^= line & (amap.num_partitions - 1)
        line >>= bits
    return folded


MAPS = [
    DEFAULT_ADDRESS_MAP,
    AddressMap(interleave_hash=False),
    AddressMap(memory_bytes=1 << 26, num_partitions=8, line_bytes=256),
]
MAP_IDS = ["default", "unhashed", "8-partitions"]


class TestVectorFold:
    """``partitions_of``, the one copy of the fold ``partition_of`` and
    the L2 pass both use."""

    def addresses(self, amap):
        """Every digit of the line index in play: low lines, the top of
        the range, one address per bit of the line index, and random
        addresses over the whole range."""
        rng = np.random.default_rng(26)
        bits = amap.num_lines.bit_length() - 1
        return np.concatenate([
            np.arange(0, 64 * amap.line_bytes, 32, dtype=np.int64),
            amap.memory_bytes - 1 - np.arange(0, 4096, 32, dtype=np.int64),
            np.array([amap.line_bytes << bit for bit in range(bits)],
                     dtype=np.int64),
            rng.integers(0, amap.memory_bytes, size=4000, dtype=np.int64),
        ])

    @pytest.mark.parametrize("amap", MAPS, ids=MAP_IDS)
    def test_matches_the_digit_loop(self, amap):
        addrs = self.addresses(amap)
        assert amap.partitions_of(addrs).tolist() == [
            digit_fold(amap, a) for a in addrs.tolist()
        ]

    @pytest.mark.parametrize("amap", MAPS, ids=MAP_IDS)
    def test_matches_partition_of_address_by_address(self, amap):
        addrs = self.addresses(amap)[::7]
        assert amap.partitions_of(addrs).tolist() == [
            amap.partition_of(a) for a in addrs.tolist()
        ]

    @pytest.mark.parametrize("amap", MAPS, ids=MAP_IDS)
    def test_empty_input(self, amap):
        assert amap.partitions_of(np.array([], dtype=np.int64)).tolist() == []

    def test_reject_first_address_outside_above(self):
        amap = DEFAULT_ADDRESS_MAP
        top = amap.memory_bytes
        with pytest.raises(ValueError, match=f"{top + 32:#x}"):
            amap.partitions_of(
                np.array([0, top + 32, -32, top], dtype=np.int64))

    def test_reject_first_address_outside_below(self):
        amap = DEFAULT_ADDRESS_MAP
        with pytest.raises(ValueError, match="-0x20"):
            amap.partitions_of(
                np.array([64, -32, amap.memory_bytes], dtype=np.int64))

    def test_one_partition_owns_every_line(self):
        """A one-partition map folds zero-bit digits: every line maps to
        partition 0 (the per-address digit loop never ended here)."""
        amap = AddressMap(memory_bytes=1 << 20, num_partitions=1)
        addrs = np.arange(0, 1 << 20, 4096, dtype=np.int64)
        assert amap.partitions_of(addrs).tolist() == [0] * len(addrs)
        assert amap.partition_of(128) == 0

    def test_scalar_rejects_outside_as_before(self):
        with pytest.raises(ValueError):
            DEFAULT_ADDRESS_MAP.partition_of(DEFAULT_ADDRESS_MAP.memory_bytes)
        with pytest.raises(ValueError):
            DEFAULT_ADDRESS_MAP.partition_of(1 << 70)
