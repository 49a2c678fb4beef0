"""Unit tests for bit/byte helpers."""

import pytest

from repro.common import bitops
from repro.common.errors import AlignmentError


class TestPowerOfTwo:
    def test_powers_are_recognized(self):
        for exponent in range(20):
            assert bitops.is_power_of_two(1 << exponent)

    def test_non_powers_are_rejected(self):
        for value in (0, -1, -2, 3, 5, 6, 7, 12, 100):
            assert not bitops.is_power_of_two(value)

    def test_log2_exact(self):
        assert bitops.log2_exact(1) == 0
        assert bitops.log2_exact(128) == 7
        assert bitops.log2_exact(1 << 30) == 30

    def test_log2_exact_rejects_non_powers(self):
        with pytest.raises(ValueError):
            bitops.log2_exact(96)


class TestAlignment:
    def test_align_down(self):
        assert bitops.align_down(0x1234, 0x100) == 0x1200
        assert bitops.align_down(0x1200, 0x100) == 0x1200

    def test_align_up(self):
        assert bitops.align_up(0x1234, 0x100) == 0x1300
        assert bitops.align_up(0x1200, 0x100) == 0x1200

    def test_align_rejects_non_power_alignment(self):
        with pytest.raises(ValueError):
            bitops.align_down(10, 3)
        with pytest.raises(ValueError):
            bitops.align_up(10, 6)

    def test_require_aligned_passes(self):
        bitops.require_aligned(0x80, 128)

    def test_require_aligned_raises(self):
        with pytest.raises(AlignmentError):
            bitops.require_aligned(0x81, 128)


class TestBitFields:
    def test_extract_bits(self):
        assert bitops.extract_bits(0b1101_0110, 1, 3) == 0b011
        assert bitops.extract_bits(0xFF00, 8, 8) == 0xFF

    def test_extract_rejects_negative_positions(self):
        with pytest.raises(ValueError):
            bitops.extract_bits(1, -1, 2)

    def test_deposit_bits(self):
        assert bitops.deposit_bits(0, 4, 4, 0xF) == 0xF0
        assert bitops.deposit_bits(0xFF, 0, 4, 0) == 0xF0

    def test_deposit_then_extract_roundtrip(self):
        value = bitops.deposit_bits(0xABCD, 5, 7, 0x55)
        assert bitops.extract_bits(value, 5, 7) == 0x55


class TestByteConversions:
    def test_little_endian_roundtrip(self):
        assert bitops.bytes_to_int_le(bitops.int_to_bytes_le(0xDEADBEEF, 4)) == 0xDEADBEEF

    def test_big_endian_roundtrip(self):
        assert bitops.bytes_to_int_be(bitops.int_to_bytes_be(0xCAFE, 2)) == 0xCAFE

    def test_endianness_differs(self):
        data = b"\x01\x02"
        assert bitops.bytes_to_int_le(data) == 0x0201
        assert bitops.bytes_to_int_be(data) == 0x0102

    def test_xor_bytes(self):
        assert bitops.xor_bytes(b"\xff\x00", b"\x0f\x0f") == b"\xf0\x0f"

    def test_xor_bytes_length_mismatch(self):
        with pytest.raises(ValueError):
            bitops.xor_bytes(b"\x00", b"\x00\x00")

    def test_xor_is_involution(self):
        a, b = b"hello world!....", b"0123456789abcdef"
        assert bitops.xor_bytes(bitops.xor_bytes(a, b), b) == a


class TestPopcount:
    def test_known_values(self):
        assert bitops.popcount(0) == 0
        assert bitops.popcount(0b1011) == 3
        assert bitops.popcount((1 << 64) - 1) == 64

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bitops.popcount(-1)


class TestValueSplitting:
    def test_split_values_32bit(self):
        data = bitops.int_to_bytes_le(0x11223344, 4) + bitops.int_to_bytes_le(0x55667788, 4)
        assert bitops.split_values(data, 4) == [0x11223344, 0x55667788]

    def test_split_join_roundtrip(self):
        values = [1, 2**31, 0xFFFFFFFF, 0]
        assert bitops.split_values(bitops.join_values(values, 4), 4) == values

    def test_split_rejects_ragged_input(self):
        with pytest.raises(ValueError):
            bitops.split_values(b"\x00" * 5, 4)

    def test_sector_splits_into_eight(self):
        assert len(bitops.split_values(b"\x00" * 32, 4)) == 8


class TestMaskLowBits:
    def test_masks_four_bits(self):
        assert bitops.mask_low_bits(0xFF, 4) == 0xF0

    def test_zero_mask_is_identity(self):
        assert bitops.mask_low_bits(0x1234, 0) == 0x1234

    def test_near_values_collide_after_masking(self):
        assert bitops.mask_low_bits(0x1000, 4) == bitops.mask_low_bits(0x100F, 4)

    def test_rejects_negative_bits(self):
        with pytest.raises(ValueError):
            bitops.mask_low_bits(1, -1)


class TestIterChunks:
    def test_exact_chunks(self):
        assert list(bitops.iter_chunks(b"abcdef", 2)) == [b"ab", b"cd", b"ef"]

    def test_final_short_chunk(self):
        assert list(bitops.iter_chunks(b"abcde", 2)) == [b"ab", b"cd", b"e"]

    def test_empty_input(self):
        assert list(bitops.iter_chunks(b"", 4)) == []
