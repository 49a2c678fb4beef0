"""AES and AES-XTS checked against an independent implementation.

The ``cryptography`` package (OpenSSL underneath) is the oracle; the
module skips where it is not installed. Lengths that are not a multiple
of 16 bytes exercise XTS ciphertext stealing.
"""

import random

import pytest

from repro.crypto.aes import AES
from repro.crypto.xts import AesXts

ciphers = pytest.importorskip("cryptography.hazmat.primitives.ciphers")
Cipher, algorithms, modes = ciphers.Cipher, ciphers.algorithms, ciphers.modes


def _random_bytes(rng, n):
    return bytes(rng.getrandbits(8) for _ in range(n))


@pytest.mark.parametrize("key_len", [16, 24, 32])
def test_aes_blocks_match_openssl(key_len):
    rng = random.Random(key_len)
    for _ in range(100):
        key = _random_bytes(rng, key_len)
        block = _random_bytes(rng, 16)
        ours = AES(key)
        oracle = Cipher(algorithms.AES(key), modes.ECB())
        enc = oracle.encryptor()
        dec = oracle.decryptor()
        assert ours.encrypt_block(block) == enc.update(block) + enc.finalize()
        assert ours.decrypt_block(block) == dec.update(block) + dec.finalize()


@pytest.mark.parametrize("key_len", [32, 64])
def test_xts_matches_openssl(key_len):
    rng = random.Random(1000 + key_len)
    for case in range(100):
        length = 16 + case % 65
        key = _random_bytes(rng, key_len)
        tweak = _random_bytes(rng, 16)
        data = _random_bytes(rng, length)
        ours = AesXts(key)
        oracle = Cipher(algorithms.AES(key), modes.XTS(tweak))
        enc = oracle.encryptor()
        dec = oracle.decryptor()
        assert ours.encrypt(data, tweak) == enc.update(data) + enc.finalize()
        assert ours.decrypt(data, tweak) == dec.update(data) + dec.finalize()
