"""Physical address geometry and partition interleaving.

The modeled GPU (Table I) has 32 memory partitions over a 4 GiB protected
range, 128-byte cache lines split into four 32-byte sectors. Addresses
are interleaved across partitions pseudo-randomly (XOR-folded line bits),
matching the "pseudo-random memory interleaving" of the baseline
configuration — consecutive lines scatter across partitions so that
streaming kernels load all partitions evenly.

PSSM's key addressing insight is preserved: security metadata is indexed
by the *partition-local* address (the dense index of a line's sectors
within its own partition), so a partition's metadata describes only data
that actually lives there and metadata fetches never cross partitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.bitops import is_power_of_two, log2_exact
from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class AddressMap:
    """Geometry of the protected physical address space."""

    memory_bytes: int = 4 * 1024**3
    num_partitions: int = 32
    line_bytes: int = 128
    sector_bytes: int = 32
    interleave_hash: bool = True

    def __post_init__(self) -> None:
        for name in ("memory_bytes", "num_partitions", "line_bytes", "sector_bytes"):
            if not is_power_of_two(getattr(self, name)):
                raise ConfigurationError(f"{name} must be a power of two")
        if self.line_bytes % self.sector_bytes != 0:
            raise ConfigurationError("line size must be a multiple of sector size")
        if self.memory_bytes % (self.line_bytes * self.num_partitions) != 0:
            raise ConfigurationError(
                "memory size must be a multiple of line size x partitions"
            )

    @property
    def sectors_per_line(self) -> int:
        return self.line_bytes // self.sector_bytes

    @property
    def num_lines(self) -> int:
        return self.memory_bytes // self.line_bytes

    @property
    def lines_per_partition(self) -> int:
        return self.num_lines // self.num_partitions

    @property
    def partition_bytes(self) -> int:
        return self.memory_bytes // self.num_partitions

    def check(self, address: int) -> None:
        """Validate that *address* falls inside the protected range."""
        if not 0 <= address < self.memory_bytes:
            raise ValueError(
                f"address {address:#x} outside protected range "
                f"[0, {self.memory_bytes:#x})"
            )

    def line_address(self, address: int) -> int:
        """Round *address* down to its 128-byte line base."""
        self.check(address)
        return address & ~(self.line_bytes - 1)

    def line_index(self, address: int) -> int:
        """Global line number of *address*."""
        self.check(address)
        return address // self.line_bytes

    def sector_in_line(self, address: int) -> int:
        """Sector slot (0..3) of *address* within its line."""
        self.check(address)
        return (address % self.line_bytes) // self.sector_bytes

    def sector_address(self, address: int) -> int:
        """Round *address* down to its 32-byte sector base."""
        self.check(address)
        return address & ~(self.sector_bytes - 1)

    def partition_of(self, address: int) -> int:
        """Memory partition that owns the line containing *address*
        (:meth:`partitions_of` of one address)."""
        self.check(address)
        return int(self.partitions_of(np.array([address], dtype=np.int64))[0])

    def partitions_of(self, addresses: np.ndarray) -> np.ndarray:
        """Memory partition of every address in an int64 array.

        With hashing enabled the partition is an XOR fold of the line
        index's digits (``log2(num_partitions)`` bits each), which
        decorrelates partition choice from low-order strides (the
        pseudo-random interleave of real GPUs). Without hashing, simple
        modulo interleaving is used. Raises :meth:`check`'s ValueError
        for the first address outside the protected range.
        """
        outside = (addresses < 0) | (addresses >= self.memory_bytes)
        if outside.any():
            self.check(int(addresses[outside.argmax()]))
        lines = addresses // self.line_bytes
        digit = self.num_partitions - 1
        folded = lines & digit
        bits = log2_exact(self.num_partitions)
        if self.interleave_hash and bits:
            for shift in range(bits, log2_exact(self.num_lines), bits):
                folded ^= (lines >> shift) & digit
        return folded

    def local_line_index(self, address: int) -> int:
        """Dense per-partition line number (PSSM partition-local address).

        Lines mapping to a partition are numbered in ascending global
        order; with power-of-two interleaving every partition holds
        exactly ``lines_per_partition`` lines and the dense index is the
        global line index divided by the partition count.
        """
        return self.line_index(address) // self.num_partitions

    def local_sector_index(self, address: int) -> int:
        """Dense per-partition sector number of *address*."""
        return (
            self.local_line_index(address) * self.sectors_per_line
            + self.sector_in_line(address)
        )

    def local_sector_indices(self, addresses: np.ndarray) -> np.ndarray:
        """:meth:`local_sector_index` of every address in an int64 array.

        Raises :meth:`check`'s ValueError for the first address outside
        the protected range.
        """
        outside = (addresses < 0) | (addresses >= self.memory_bytes)
        if outside.any():
            self.check(int(addresses[outside.argmax()]))
        return (
            addresses // self.line_bytes // self.num_partitions
            * self.sectors_per_line
            + addresses % self.line_bytes // self.sector_bytes
        )

    def iter_line_sector_addresses(self, address: int):
        """Yield the four sector base addresses of the line at *address*."""
        base = self.line_address(address)
        for i in range(self.sectors_per_line):
            yield base + i * self.sector_bytes


DEFAULT_ADDRESS_MAP = AddressMap()
