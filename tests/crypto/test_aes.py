"""AES tests pinned to the FIPS-197 vectors."""

import copy

import pytest

from repro.common.errors import BlockSizeError, KeySizeError
from repro.crypto.aes import (
    AES,
    gf256_mul,
    inv_sbox_table,
    sbox_table,
)

FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")


class TestFipsVectors:
    """Appendix C of FIPS-197."""

    def test_aes128(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        ct = AES(key).encrypt_block(FIPS_PLAINTEXT)
        assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_aes192(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        ct = AES(key).encrypt_block(FIPS_PLAINTEXT)
        assert ct.hex() == "dda97ca4864cdfe06eaf70a0ec0d7191"

    def test_aes256(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f"
            "101112131415161718191a1b1c1d1e1f"
        )
        ct = AES(key).encrypt_block(FIPS_PLAINTEXT)
        assert ct.hex() == "8ea2b7ca516745bfeafc49904b496089"

    @pytest.mark.parametrize("key_len", [16, 24, 32])
    def test_decrypt_inverts_encrypt(self, key_len):
        cipher = AES(bytes(range(key_len)))
        ct = cipher.encrypt_block(FIPS_PLAINTEXT)
        assert cipher.decrypt_block(ct) == FIPS_PLAINTEXT


class TestSbox:
    def test_first_canonical_entries(self):
        sbox = sbox_table()
        assert sbox[:8] == [0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5]
        assert sbox[0xFF] == 0x16

    def test_sbox_is_a_permutation(self):
        assert sorted(sbox_table()) == list(range(256))

    def test_inverse_sbox_inverts(self):
        sbox, inv = sbox_table(), inv_sbox_table()
        for value in range(256):
            assert inv[sbox[value]] == value

    def test_sbox_has_no_fixed_points(self):
        sbox = sbox_table()
        assert all(sbox[v] != v for v in range(256))


class TestGf256:
    def test_identity(self):
        assert gf256_mul(0x57, 1) == 0x57

    def test_known_product(self):
        # FIPS-197 section 4.2: {57} x {13} = {fe}
        assert gf256_mul(0x57, 0x13) == 0xFE

    def test_doubling(self):
        assert gf256_mul(0x80, 2) == 0x1B  # reduction kicks in

    def test_commutative(self):
        for a, b in [(0x03, 0x55), (0xAA, 0x0F), (0xFF, 0xFF)]:
            assert gf256_mul(a, b) == gf256_mul(b, a)

    def test_zero_annihilates(self):
        assert gf256_mul(0xAB, 0) == 0


class TestKeyAndBlockValidation:
    def test_bad_key_sizes_rejected(self):
        for size in (0, 8, 15, 17, 31, 33, 64):
            with pytest.raises(KeySizeError):
                AES(b"\x00" * size)

    def test_bad_block_sizes_rejected(self):
        cipher = AES(b"\x00" * 16)
        with pytest.raises(BlockSizeError):
            cipher.encrypt_block(b"\x00" * 15)
        with pytest.raises(BlockSizeError):
            cipher.decrypt_block(b"\x00" * 17)

    def test_round_counts(self):
        assert AES(b"\x00" * 16).rounds == 10
        assert AES(b"\x00" * 24).rounds == 12
        assert AES(b"\x00" * 32).rounds == 14


class TestAvalanche:
    def test_single_bit_key_change_diffuses(self):
        pt = b"\x00" * 16
        a = AES(b"\x00" * 16).encrypt_block(pt)
        b = AES(b"\x01" + b"\x00" * 15).encrypt_block(pt)
        differing = sum(bin(x ^ y).count("1") for x, y in zip(a, b))
        assert differing > 40  # ~64 expected for a random function

    def test_single_bit_plaintext_change_diffuses(self):
        cipher = AES(b"\x13" * 16)
        a = cipher.encrypt_block(b"\x00" * 16)
        b = cipher.encrypt_block(b"\x80" + b"\x00" * 15)
        differing = sum(bin(x ^ y).count("1") for x, y in zip(a, b))
        assert differing > 40


class TestTables:
    def test_deep_copies_share_the_tables(self):
        """Fault campaigns deep-copy whole secure memories; the read-only
        T-tables must be shared, not copied table entry by entry."""
        cipher = AES(bytes(range(16)))
        clone = copy.deepcopy(cipher)
        assert clone._tables is cipher._tables
        assert clone.encrypt_block(FIPS_PLAINTEXT) == cipher.encrypt_block(FIPS_PLAINTEXT)
        assert clone.decrypt_block(FIPS_PLAINTEXT) == cipher.decrypt_block(FIPS_PLAINTEXT)
