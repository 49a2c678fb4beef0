"""AES, AES-XTS and HMAC-SHA-256 checked against an independent
implementation.

The ``cryptography`` package (OpenSSL underneath) is the oracle; the
module skips where it is not installed. Lengths that are not a multiple
of 16 bytes exercise XTS ciphertext stealing.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.crypto.mac import HmacSha256Mac
from repro.crypto.xts import AesXts

ciphers = pytest.importorskip("cryptography.hazmat.primitives.ciphers")
Cipher, algorithms, modes = ciphers.Cipher, ciphers.algorithms, ciphers.modes
hashes = pytest.importorskip("cryptography.hazmat.primitives.hashes")
openssl_hmac = pytest.importorskip("cryptography.hazmat.primitives.hmac")


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


@settings(max_examples=100, deadline=None)
@given(
    # Both sides of the 64-byte block: longer keys are hashed first.
    key=st.one_of(
        st.binary(max_size=64), st.binary(min_size=65, max_size=200)
    ),
    data=st.binary(max_size=200),
    address=st.integers(min_value=0, max_value=2**64 - 1),
    counter=st.integers(min_value=0, max_value=2**64 - 1),
    tag_bytes=st.integers(min_value=1, max_value=32),
)
def test_hmac_compute_matches_openssl(key, data, address, counter, tag_bytes):
    # compute() MACs the (address, counter) context, 8 little-endian
    # bytes each, ahead of the data.
    oracle = openssl_hmac.HMAC(key, hashes.SHA256())
    oracle.update(address.to_bytes(8, "little"))
    oracle.update(counter.to_bytes(8, "little"))
    oracle.update(data)
    expected = oracle.finalize()[:tag_bytes]
    mac = HmacSha256Mac(key, tag_bytes=tag_bytes)
    assert mac.compute(data, address=address, counter=counter) == expected
