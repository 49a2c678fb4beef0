"""Message authentication codes used by the secure-memory engines.

Two constructions are provided:

* :class:`HmacSha256Mac` — HMAC-SHA-256 from the standard library
  (:func:`hmac.digest`), the default integrity primitive for data
  sectors and BMT nodes.
* :class:`CmacAesMac` — CMAC (NIST SP 800-38B) over the from-scratch
  AES, matching the AES-based MAC units typical in secure-memory
  hardware proposals.

Both are *stateful* in the Bonsai-Merkle-Tree sense: the sector's
encryption counter and address are mixed into the MAC input, so replaying
an old (data, MAC) pair fails once the counter has moved on (paper
Section II-A). Truncation is explicit — PSSM truncates to 4 bytes, Plutus
to 8 — because the paper's security argument (Eq. 1) is phrased against
the collision rate of the truncated tag.
"""

from __future__ import annotations

import hmac

from repro.common.bitops import xor_bytes
from repro.common.errors import ConfigurationError
from repro.crypto.aes import AES, BLOCK_SIZE
from repro.obs.session import active as _obs_active


def _encode_context(address: int, counter: int) -> bytes:
    """Serialize the stateful-MAC context (address, counter) canonically."""
    if address < 0 or counter < 0:
        raise ValueError("address and counter must be non-negative")
    return address.to_bytes(8, "little") + counter.to_bytes(8, "little")


class MacAlgorithm:
    """Interface shared by all MAC constructions."""

    #: Full (untruncated) tag width in bytes.
    native_tag_bytes: int = 0

    def __init__(self, key: bytes, tag_bytes: int) -> None:
        if tag_bytes <= 0 or tag_bytes > self.native_tag_bytes:
            raise ConfigurationError(
                f"tag size {tag_bytes} outside (0, {self.native_tag_bytes}]"
            )
        self.key = key
        self.tag_bytes = tag_bytes
        # Span profiler under span_detail profiling only; None keeps
        # compute/verify at one attribute check per call.
        obs = _obs_active()
        self._prof = (
            obs.profiler if obs.config.span_detail_active else None
        )

    def _full_tag(self, message: bytes) -> bytes:
        raise NotImplementedError

    def compute(self, data: bytes, address: int = 0, counter: int = 0) -> bytes:
        """MAC *data* bound to its (address, counter) context, truncated."""
        message = _encode_context(address, counter) + data
        if self._prof is None:
            return self._full_tag(message)[: self.tag_bytes]
        with self._prof.span("crypto.mac.compute"):
            return self._full_tag(message)[: self.tag_bytes]

    def verify(
        self, data: bytes, tag: bytes, address: int = 0, counter: int = 0
    ) -> bool:
        """Constant-pattern comparison of a stored tag against *data*."""
        expected = self.compute(data, address=address, counter=counter)
        if len(tag) != len(expected):
            return False
        # Accumulate differences instead of early exit; in hardware the
        # comparison is a parallel XOR-reduce, and in the model this keeps
        # the code path identical for matching and failing tags.
        diff = 0
        for x, y in zip(expected, tag):
            diff |= x ^ y
        return diff == 0

    @property
    def collision_probability(self) -> float:
        """Probability a random forgery matches the truncated tag."""
        return 2.0 ** (-8 * self.tag_bytes)


class HmacSha256Mac(MacAlgorithm):
    """HMAC-SHA256 (RFC 2104) with configurable truncation."""

    native_tag_bytes = 32

    def __init__(self, key: bytes, tag_bytes: int = 8) -> None:
        super().__init__(key, tag_bytes)

    def _full_tag(self, message: bytes) -> bytes:
        return hmac.digest(self.key, message, "sha256")


class CmacAesMac(MacAlgorithm):
    """CMAC-AES (NIST SP 800-38B) with configurable truncation."""

    native_tag_bytes = 16

    def __init__(self, key: bytes, tag_bytes: int = 8) -> None:
        super().__init__(key, tag_bytes)
        self._cipher = AES(key)
        zero = self._cipher.encrypt_block(b"\x00" * BLOCK_SIZE)
        self._k1 = self._double(zero)
        self._k2 = self._double(self._k1)

    @staticmethod
    def _double(block: bytes) -> bytes:
        """Doubling in GF(2^128) with the *big-endian* CMAC convention."""
        value = int.from_bytes(block, "big")
        shifted = (value << 1) & ((1 << 128) - 1)
        if value >> 127:
            shifted ^= 0x87
        return shifted.to_bytes(16, "big")

    def _full_tag(self, message: bytes) -> bytes:
        if message and len(message) % BLOCK_SIZE == 0:
            blocks = [
                message[i : i + BLOCK_SIZE]
                for i in range(0, len(message), BLOCK_SIZE)
            ]
            blocks[-1] = xor_bytes(blocks[-1], self._k1)
        else:
            padded = message + b"\x80"
            padded += b"\x00" * ((BLOCK_SIZE - len(padded)) % BLOCK_SIZE)
            blocks = [
                padded[i : i + BLOCK_SIZE]
                for i in range(0, len(padded), BLOCK_SIZE)
            ]
            blocks[-1] = xor_bytes(blocks[-1], self._k2)
        state = b"\x00" * BLOCK_SIZE
        for block in blocks:
            state = self._cipher.encrypt_block(xor_bytes(state, block))
        return state


def make_mac(algorithm: str, key: bytes, tag_bytes: int) -> MacAlgorithm:
    """Factory over the two MAC constructions by name."""
    if algorithm == "hmac-sha256":
        return HmacSha256Mac(key, tag_bytes)
    if algorithm == "cmac-aes":
        return CmacAesMac(key, tag_bytes)
    raise ConfigurationError(f"unknown MAC algorithm: {algorithm!r}")
