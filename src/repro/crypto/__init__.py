"""Cryptographic substrate: from-scratch AES, XTS, CME and CMAC, plus
HMAC-SHA-256 from the standard library."""

from repro.crypto.aes import AES, BLOCK_SIZE, gf256_mul
from repro.crypto.cme import CounterModeCipher
from repro.crypto.gf import (
    alpha_power,
    bytes_to_element,
    element_to_bytes,
    gf128_mul,
    multiply_by_alpha,
    multiply_by_alpha_bytes,
)
from repro.crypto.mac import CmacAesMac, HmacSha256Mac, MacAlgorithm, make_mac
from repro.crypto.tweak import DEFAULT_TWEAK_LAYOUT, TweakLayout, make_tweak
from repro.crypto.xts import AesXts

__all__ = [
    "AES",
    "AesXts",
    "BLOCK_SIZE",
    "CmacAesMac",
    "CounterModeCipher",
    "DEFAULT_TWEAK_LAYOUT",
    "HmacSha256Mac",
    "MacAlgorithm",
    "TweakLayout",
    "alpha_power",
    "bytes_to_element",
    "element_to_bytes",
    "gf128_mul",
    "gf256_mul",
    "make_mac",
    "make_tweak",
    "multiply_by_alpha",
    "multiply_by_alpha_bytes",
]
