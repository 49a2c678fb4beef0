"""Property-based tests over the crypto substrate (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.crypto.cme import CounterModeCipher
from repro.crypto.gf import MASK_128, gf128_mul, multiply_by_alpha
from repro.crypto.mac import HmacSha256Mac
from repro.crypto.xts import AesXts

keys16 = st.binary(min_size=16, max_size=16)
blocks = st.binary(min_size=16, max_size=16)
elements = st.integers(min_value=0, max_value=MASK_128)


@settings(max_examples=30, deadline=None)
@given(key=keys16, block=blocks)
def test_aes_decrypt_inverts_encrypt(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@settings(max_examples=30, deadline=None)
@given(key=keys16, block=blocks)
def test_aes_is_a_permutation_per_key(key, block):
    """Encryption never fixes the identity accidentally for same output."""
    cipher = AES(key)
    ct = cipher.encrypt_block(block)
    assert len(ct) == 16
    # Injectivity spot-check: a different block maps elsewhere.
    other = bytes(b ^ 0xFF for b in block)
    assert cipher.encrypt_block(other) != ct


@settings(max_examples=30, deadline=None)
@given(
    key=st.binary(min_size=32, max_size=32),
    data=st.binary(min_size=16, max_size=200),
    tweak_int=st.integers(min_value=0, max_value=(1 << 128) - 1),
)
def test_xts_roundtrip_any_length(key, data, tweak_int):
    xts = AesXts(key)
    tweak = tweak_int.to_bytes(16, "little")
    assert xts.decrypt(xts.encrypt(data, tweak), tweak) == data


@settings(max_examples=30, deadline=None)
@given(key=keys16, data=st.binary(min_size=1, max_size=100),
       tweak_int=st.integers(min_value=0, max_value=(1 << 128) - 1))
def test_cme_roundtrip(key, data, tweak_int):
    cme = CounterModeCipher(key)
    tweak = tweak_int.to_bytes(16, "little")
    assert cme.decrypt(cme.encrypt(data, tweak), tweak) == data


@settings(max_examples=50, deadline=None)
@given(a=elements, b=elements)
def test_gf128_commutes(a, b):
    assert gf128_mul(a, b) == gf128_mul(b, a)


@settings(max_examples=50, deadline=None)
@given(a=elements)
def test_gf128_alpha_consistency(a):
    assert gf128_mul(a, 2) == multiply_by_alpha(a)


@settings(max_examples=30, deadline=None)
@given(
    key=st.binary(min_size=1, max_size=80),
    data=st.binary(max_size=100),
    address=st.integers(min_value=0, max_value=2**40),
    counter=st.integers(min_value=0, max_value=2**40),
)
def test_hmac_verify_accepts_own_tags(key, data, address, counter):
    mac = HmacSha256Mac(key, tag_bytes=8)
    tag = mac.compute(data, address=address, counter=counter)
    assert mac.verify(data, tag, address=address, counter=counter)
