"""Bit- and byte-level helpers used across the library.

The simulator manipulates addresses, sector masks, and fixed-width
counters constantly; concentrating the fiddly shifting/masking here keeps
the architectural modules readable and uniformly tested.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.common.errors import AlignmentError


def is_power_of_two(value: int) -> bool:
    """Return ``True`` when *value* is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return ``log2(value)`` for an exact power of two.

    Raises:
        ValueError: if *value* is not a positive power of two.
    """
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a positive power of two")
    return value.bit_length() - 1


def align_down(value: int, alignment: int) -> int:
    """Round *value* down to a multiple of *alignment* (a power of two)."""
    if not is_power_of_two(alignment):
        raise ValueError(f"alignment {alignment} is not a power of two")
    return value & ~(alignment - 1)


def align_up(value: int, alignment: int) -> int:
    """Round *value* up to a multiple of *alignment* (a power of two)."""
    if not is_power_of_two(alignment):
        raise ValueError(f"alignment {alignment} is not a power of two")
    return (value + alignment - 1) & ~(alignment - 1)


def require_aligned(value: int, alignment: int, what: str = "address") -> None:
    """Raise :class:`AlignmentError` unless *value* is aligned."""
    if value % alignment != 0:
        raise AlignmentError(
            f"{what} {value:#x} is not aligned to {alignment} bytes"
        )


def extract_bits(value: int, low: int, width: int) -> int:
    """Return ``width`` bits of *value* starting at bit ``low`` (LSB = 0)."""
    if width < 0 or low < 0:
        raise ValueError("bit positions must be non-negative")
    return (value >> low) & ((1 << width) - 1)


def deposit_bits(value: int, low: int, width: int, field: int) -> int:
    """Return *value* with bits ``[low, low+width)`` replaced by *field*."""
    mask = ((1 << width) - 1) << low
    return (value & ~mask) | ((field << low) & mask)


def bytes_to_int_le(data: bytes) -> int:
    """Interpret *data* as a little-endian unsigned integer."""
    return int.from_bytes(data, "little")


def bytes_to_int_be(data: bytes) -> int:
    """Interpret *data* as a big-endian unsigned integer."""
    return int.from_bytes(data, "big")


def int_to_bytes_le(value: int, length: int) -> bytes:
    """Encode *value* as *length* little-endian bytes."""
    return value.to_bytes(length, "little")


def int_to_bytes_be(value: int, length: int) -> bytes:
    """Encode *value* as *length* big-endian bytes."""
    return value.to_bytes(length, "big")


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """Return the byte-wise XOR of two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


def popcount(value: int) -> int:
    """Count the set bits of a non-negative integer."""
    if value < 0:
        raise ValueError("popcount of negative value")
    return bin(value).count("1")


#: Cached little-endian Struct objects for the power-of-two widths the
#: engines actually use; one C-level unpack call replaces a Python loop
#: of slices on the replay hot path.
_LE_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_SPLIT_STRUCTS: Dict[Tuple[int, int], struct.Struct] = {}


def split_values(data: bytes, value_bytes: int) -> List[int]:
    """Split *data* into little-endian integers of *value_bytes* each.

    This is how the Plutus engine carves a sector into the M-bit values
    probed against the value cache (paper Section IV-C, step 1).
    """
    if len(data) % value_bytes != 0:
        raise ValueError(
            f"data length {len(data)} is not a multiple of {value_bytes}"
        )
    code = _LE_STRUCT_CODES.get(value_bytes)
    if code is not None:
        key = (len(data), value_bytes)
        unpacker = _SPLIT_STRUCTS.get(key)
        if unpacker is None:
            unpacker = struct.Struct(f"<{len(data) // value_bytes}{code}")
            _SPLIT_STRUCTS[key] = unpacker
        return list(unpacker.unpack(data))
    return [
        bytes_to_int_le(data[i : i + value_bytes])
        for i in range(0, len(data), value_bytes)
    ]


def join_values(values: Sequence[int], value_bytes: int) -> bytes:
    """Inverse of :func:`split_values`."""
    return b"".join(int_to_bytes_le(v, value_bytes) for v in values)


def mask_low_bits(value: int, bits: int) -> int:
    """Clear the *bits* least-significant bits of *value*.

    Plutus masks the 4 LSBs of each 32-bit value so that nearby values
    (loop counters, neighbouring floats) also register as value-cache hits
    (paper Section III-B, third scenario).
    """
    if bits < 0:
        raise ValueError("bits must be non-negative")
    return value & ~((1 << bits) - 1)


def iter_chunks(data: bytes, size: int) -> Iterator[bytes]:
    """Yield consecutive *size*-byte chunks of *data*.

    The final chunk may be shorter when ``len(data)`` is not a multiple of
    *size*; callers that require exact chunking should validate first.
    """
    for offset in range(0, len(data), size):
        yield data[offset : offset + size]
