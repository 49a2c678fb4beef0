"""AES-128/192/256 block cipher, implemented from scratch.

The reproduction cannot assume hardware AES engines, and the functional
security tests (tamper diffusion, value-check soundness) need a real
cipher, so the full FIPS-197 algorithm is implemented here: the S-box is
derived from the GF(2^8) multiplicative inverse plus the affine map, key
expansion follows the Rijndael schedule, and both the encrypt and decrypt
directions are provided.

Rounds run on 32-bit T-tables, each entry one S-box output pushed
through (Inv)MixColumns with :func:`gf256_mul`, built when an
:class:`AES` is keyed and no other is alive; decryption is the
equivalent inverse cipher on the same round function. The performance simulator never encrypts real
data; the functional engine and the ``ext-forgery`` campaign run this
cipher, NIST vectors pin it down, and a test compares it with OpenSSL.
"""

from __future__ import annotations

import struct
import weakref
from typing import List, Sequence, Tuple

from repro.common.errors import BlockSizeError, KeySizeError

BLOCK_SIZE = 16

_IRREDUCIBLE = 0x11B  # x^8 + x^4 + x^3 + x + 1, the Rijndael polynomial


def gf256_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the Rijndael polynomial."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= _IRREDUCIBLE
        b >>= 1
    return result


def _build_sbox() -> Tuple[List[int], List[int]]:
    """Derive the AES S-box and its inverse from first principles.

    Each byte is mapped to its multiplicative inverse in GF(2^8) (0 maps
    to 0) followed by the FIPS-197 affine transformation. Computing the
    table instead of hard-coding 256 literals makes the construction
    auditable; the test suite additionally checks the canonical values.
    """
    # Build inverses via exponentiation tables on generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = gf256_mul(x, 3)
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = [0] * 256
    inv_sbox = [0] * 256
    for value in range(256):
        inverse = 0 if value == 0 else exp[255 - log[value]]
        transformed = 0
        for bit in range(8):
            parity = (
                (inverse >> bit)
                ^ (inverse >> ((bit + 4) % 8))
                ^ (inverse >> ((bit + 5) % 8))
                ^ (inverse >> ((bit + 6) % 8))
                ^ (inverse >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            transformed |= parity << bit
        sbox[value] = transformed
        inv_sbox[transformed] = value
    return sbox, inv_sbox


_SBOX, _INV_SBOX = _build_sbox()

_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(gf256_mul(_RCON[-1], 2))

_ROUNDS_BY_KEY_LEN = {16: 10, 24: 12, 32: 14}


def _sub_word(word: int) -> int:
    """SubWord: the S-box applied to each byte of a 32-bit word."""
    return int.from_bytes(bytes(_SBOX[b] for b in word.to_bytes(4, "big")), "big")


def expand_key(key: bytes) -> List[int]:
    """Run the Rijndael key schedule: the round keys as big-endian 32-bit
    column words, four per round, starting with the whitening key."""
    if len(key) not in _ROUNDS_BY_KEY_LEN:
        raise KeySizeError(
            f"AES key must be 16, 24, or 32 bytes, got {len(key)}"
        )
    rounds = _ROUNDS_BY_KEY_LEN[len(key)]
    nk = len(key) // 4
    words = list(struct.unpack(f">{nk}I", key))
    for i in range(nk, 4 * (rounds + 1)):
        temp = words[i - 1]
        if i % nk == 0:
            rotated = (temp << 8 | temp >> 24) & 0xFFFFFFFF
            temp = _sub_word(rotated) ^ _RCON[i // nk - 1] << 24
        elif nk > 6 and i % nk == 4:
            temp = _sub_word(temp)
        words.append(words[i - nk] ^ temp)
    return words


class _RoundTables:
    """The encryption and decryption T-tables.

    Table 0 maps x to the MixColumns image of S[x] in row 0, the word
    ``(2, 1, 1, 3)·S[x]`` (decryption: ``(14, 9, 13, 11)·Si[x]``); tables
    1-3 are rows 1-3, the same words rotated right by 8, 16, 24 bits.
    The final round has no MixColumns: its tables use ``(1, 0, 0, 0)``."""

    __slots__ = ("enc", "dec", "__weakref__")

    def __deepcopy__(self, memo: dict) -> "_RoundTables":
        return self  # read-only: deep copies of an AES share them

    def __init__(self) -> None:
        def tables(box: List[int], column: Tuple[int, ...]) -> tuple:
            row0 = [int.from_bytes(bytes(gf256_mul(box[x], c) for c in column), "big")
                    for x in range(256)]
            return tuple(tuple(w >> n | (w << (32 - n)) & 0xFFFFFFFF for w in row0)
                         for n in (0, 8, 16, 24))

        self.enc = tables(_SBOX, (2, 1, 1, 3)), tables(_SBOX, (1, 0, 0, 0))
        self.dec = tables(_INV_SBOX, (14, 9, 13, 11)), tables(_INV_SBOX, (1, 0, 0, 0))


#: The tables while some AES holds them, so the last one frees their 149 kB.
_LIVE_TABLES: "weakref.WeakValueDictionary[str, _RoundTables]" = weakref.WeakValueDictionary()


_WORDS = struct.Struct(">4I")


def _rounds(s0: int, s1: int, s2: int, s3: int, keys: Sequence[int],
            tables: tuple, final: tuple) -> Tuple[int, int, int, int]:
    """Run every round over a state of four big-endian column words.

    Row r of output column c comes from input column ``(c + r) % 4``
    (ShiftRows). InvShiftRows is that with columns 1 and 3 swapped, so
    decryption swaps them in its state, round keys and output.
    """
    s0, s1, s2, s3 = s0 ^ keys[0], s1 ^ keys[1], s2 ^ keys[2], s3 ^ keys[3]
    last = len(keys) - 4
    for k in range(4, len(keys), 4):
        t0, t1, t2, t3 = tables if k < last else final
        s0, s1, s2, s3 = (
            t0[s0 >> 24] ^ t1[(s1 >> 16) & 255] ^ t2[(s2 >> 8) & 255]
            ^ t3[s3 & 255] ^ keys[k],
            t0[s1 >> 24] ^ t1[(s2 >> 16) & 255] ^ t2[(s3 >> 8) & 255]
            ^ t3[s0 & 255] ^ keys[k + 1],
            t0[s2 >> 24] ^ t1[(s3 >> 16) & 255] ^ t2[(s0 >> 8) & 255]
            ^ t3[s1 & 255] ^ keys[k + 2],
            t0[s3 >> 24] ^ t1[(s0 >> 16) & 255] ^ t2[(s1 >> 8) & 255]
            ^ t3[s2 & 255] ^ keys[k + 3],
        )
    return s0, s1, s2, s3


class AES:
    """A keyed AES instance exposing single-block primitives.

    Modes of operation (XTS, counter-mode) are layered on top in
    :mod:`repro.crypto.xts` and :mod:`repro.crypto.cme`.
    """

    def __init__(self, key: bytes) -> None:
        self._enc_keys = expand_key(key)
        self.key_len = len(key)
        self.rounds = _ROUNDS_BY_KEY_LEN[self.key_len]
        tables = self._tables = _LIVE_TABLES.get("aes") or _RoundTables()
        _LIVE_TABLES["aes"] = tables
        # The equivalent inverse cipher (FIPS-197 5.3.5): round keys in
        # reverse, InvMixColumns (td of S[b]: S cancels the Si inside td) on
        # all but the first and last, and columns 1 and 3 swapped for _rounds.
        keys, (td0, td1, td2, td3) = self._enc_keys, tables.dec[0]
        mixed = keys[:4] + [td0[_SBOX[w >> 24]] ^ td1[_SBOX[(w >> 16) & 255]]
                            ^ td2[_SBOX[(w >> 8) & 255]] ^ td3[_SBOX[w & 255]]
                            for w in keys[4:-4]] + keys[-4:]
        self._dec_keys = [mixed[4 * r + c] for r in range(self.rounds, -1, -1)
                          for c in (0, 3, 2, 1)]

    def encrypt_block(self, plaintext: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(plaintext) != BLOCK_SIZE:
            raise BlockSizeError(
                f"AES block must be {BLOCK_SIZE} bytes, got {len(plaintext)}"
            )
        s0, s1, s2, s3 = _WORDS.unpack(plaintext)
        return _WORDS.pack(*_rounds(s0, s1, s2, s3, self._enc_keys, *self._tables.enc))

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(ciphertext) != BLOCK_SIZE:
            raise BlockSizeError(
                f"AES block must be {BLOCK_SIZE} bytes, got {len(ciphertext)}"
            )
        s0, s1, s2, s3 = _WORDS.unpack(ciphertext)
        o0, o3, o2, o1 = _rounds(s0, s3, s2, s1, self._dec_keys, *self._tables.dec)
        return _WORDS.pack(o0, o1, o2, o3)


def sbox_table() -> List[int]:
    """Expose a copy of the derived S-box for verification in tests."""
    return list(_SBOX)


def inv_sbox_table() -> List[int]:
    """Expose a copy of the derived inverse S-box."""
    return list(_INV_SBOX)
