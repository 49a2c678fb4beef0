"""MAC tests: RFC/NIST vectors, stateful binding, truncation."""

import pytest

from repro.common.errors import ConfigurationError
from repro.crypto.mac import CmacAesMac, HmacSha256Mac, make_mac


class TestHmacRfc4231Vectors:
    """RFC 4231 HMAC-SHA-256 test cases 1-7 on the untruncated tag.

    Case 5 publishes only the first 128 bits; cases 6 and 7 use a
    131-byte key, which HMAC hashes before use.
    """

    @pytest.mark.parametrize("key, data, expected", [
        ("0b" * 20, b"Hi There",
         "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
        (b"Jefe".hex(), b"what do ya want for nothing?",
         "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
        ("aa" * 20, b"\xdd" * 50,
         "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
        ("0102030405060708090a0b0c0d0e0f10111213141516171819", b"\xcd" * 50,
         "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
        ("0c" * 20, b"Test With Truncation",
         "a3b6167473100ee06e0c796c2955552b"),
        ("aa" * 131,
         b"Test Using Larger Than Block-Size Key - Hash Key First",
         "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
        ("aa" * 131,
         b"This is a test using a larger than block-size key and a larger "
         b"than block-size data. The key needs to be hashed before being "
         b"used by the HMAC algorithm.",
         "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
    ], ids=[f"case{n}" for n in range(1, 8)])
    def test_full_tag(self, key, data, expected):
        mac = HmacSha256Mac(bytes.fromhex(key), tag_bytes=32)
        tag = mac._full_tag(data)
        assert len(tag) == 32
        assert tag.hex()[: len(expected)] == expected


class TestCmacNistVectors:
    """NIST SP 800-38B, AES-128 examples."""

    KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")

    def test_empty_message(self):
        mac = CmacAesMac(self.KEY, tag_bytes=16)
        assert mac._full_tag(b"").hex() == "bb1d6929e95937287fa37d129b756746"

    def test_one_block(self):
        msg = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        mac = CmacAesMac(self.KEY, tag_bytes=16)
        assert mac._full_tag(msg).hex() == "070a16b46b4d4144f79bdd9dd04a287c"

    def test_40_bytes(self):
        msg = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411"
        )
        mac = CmacAesMac(self.KEY, tag_bytes=16)
        assert mac._full_tag(msg).hex() == "dfa66747de9ae63030ca32611497c827"

    def test_four_blocks(self):
        msg = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411e5fbc1191a0a52ef"
            "f69f2445df4f9b17ad2b417be66c3710"
        )
        mac = CmacAesMac(self.KEY, tag_bytes=16)
        assert mac._full_tag(msg).hex() == "51f0bebf7e3b9d92fc49741779363cfe"


@pytest.mark.parametrize("algorithm", ["hmac-sha256", "cmac-aes"])
class TestStatefulBinding:
    """BMT-style MACs bind data to (address, counter)."""

    def make(self, algorithm, tag_bytes=8):
        return make_mac(algorithm, b"\x42" * 16, tag_bytes)

    def test_verify_accepts_honest_tag(self, algorithm):
        mac = self.make(algorithm)
        tag = mac.compute(b"sector!", address=0x80, counter=3)
        assert mac.verify(b"sector!", tag, address=0x80, counter=3)

    def test_tampered_data_rejected(self, algorithm):
        mac = self.make(algorithm)
        tag = mac.compute(b"sector!", address=0x80, counter=3)
        assert not mac.verify(b"sectorX", tag, address=0x80, counter=3)

    def test_spliced_address_rejected(self, algorithm):
        """Moving a valid (data, tag) to another address must fail."""
        mac = self.make(algorithm)
        tag = mac.compute(b"sector!", address=0x80, counter=3)
        assert not mac.verify(b"sector!", tag, address=0xC0, counter=3)

    def test_replayed_counter_rejected(self, algorithm):
        """A stale counter (replay) must fail even with matching data."""
        mac = self.make(algorithm)
        tag = mac.compute(b"sector!", address=0x80, counter=3)
        assert not mac.verify(b"sector!", tag, address=0x80, counter=4)

    def test_wrong_length_tag_rejected(self, algorithm):
        mac = self.make(algorithm)
        assert not mac.verify(b"data", b"\x00" * 3, address=0, counter=0)


class TestTruncation:
    def test_truncated_tag_length(self):
        assert len(HmacSha256Mac(b"k", tag_bytes=8).compute(b"d")) == 8
        assert len(CmacAesMac(b"k" * 16, tag_bytes=4).compute(b"d")) == 4

    def test_truncation_is_a_prefix(self):
        full = HmacSha256Mac(b"k", tag_bytes=32).compute(b"d", 1, 2)
        short = HmacSha256Mac(b"k", tag_bytes=8).compute(b"d", 1, 2)
        assert full[:8] == short

    def test_collision_probability(self):
        assert HmacSha256Mac(b"k", tag_bytes=8).collision_probability == 2.0**-64
        assert HmacSha256Mac(b"k", tag_bytes=4).collision_probability == 2.0**-32

    def test_invalid_truncation_rejected(self):
        with pytest.raises(ConfigurationError):
            HmacSha256Mac(b"k", tag_bytes=0)
        with pytest.raises(ConfigurationError):
            HmacSha256Mac(b"k", tag_bytes=33)
        with pytest.raises(ConfigurationError):
            CmacAesMac(b"k" * 16, tag_bytes=17)


class TestFactory:
    def test_factory_dispatch(self):
        assert isinstance(make_mac("hmac-sha256", b"k", 8), HmacSha256Mac)
        assert isinstance(make_mac("cmac-aes", b"k" * 16, 8), CmacAesMac)

    def test_factory_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            make_mac("md5", b"k", 8)

    def test_negative_context_rejected(self):
        mac = make_mac("hmac-sha256", b"k", 8)
        with pytest.raises(ValueError):
            mac.compute(b"d", address=-1, counter=0)
