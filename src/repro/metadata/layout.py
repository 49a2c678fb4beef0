"""Partition-local layout of security metadata.

Maps a data sector's partition-local index to the addresses of its
encryption counter, its MAC, and its BMT leaf, inside per-partition flat
metadata address spaces (PSSM's partition-local addressing). The layout
also encodes the paper's *fetch granularity* choice: the hashing unit of
the BMT determines how many 32-byte sectors a counter miss must pull in
(Fig. 14's three designs).

Default arithmetic with the Volta geometry (Table I):

* one 32 B counter sector = 8 B major + 32 x 6-bit minors, covering 32
  data sectors (1 KiB of data);
* one 32 B MAC sector = 4 x 8 B MACs, covering 4 data sectors (PSSM's
  4 B MACs fit 8 per sector — tag size is a layout parameter);
* a 128 B metadata line therefore covers 4 KiB of data (counters) or
  512 B of data (8 B MACs).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.metadata.bmt import BmtGeometry


class GranularityDesign(Enum):
    """The three metadata-granularity designs of paper Fig. 14."""

    #: Prior-work baseline: counters hashed and fetched as 128 B blocks,
    #: BMT nodes 128 B, 16-ary.
    BLOCK_128 = "128B_metadata"
    #: Counter/MAC blocks shrink to 32 B; the tree above keeps 128 B
    #: nodes (16-ary) so it gains 4x the leaves.
    LEAF_32_TREE_128 = "32B_leaves_128B_tree"
    #: Everything 32 B: BMT nodes hold 4 hashes (4-ary), tree grows tall.
    ALL_32 = "32B_metadata"


@dataclass(frozen=True)
class MetadataLayout:
    """Metadata geometry for one memory partition."""

    #: Number of 32 B data sectors the partition holds.
    data_sectors: int
    design: GranularityDesign = GranularityDesign.BLOCK_128
    sector_bytes: int = 32
    line_bytes: int = 128
    #: Data sectors covered by one 32 B counter sector.
    sectors_per_counter_sector: int = 32
    mac_tag_bytes: int = 8
    tree_arity_128: int = 16

    def __post_init__(self) -> None:
        if self.data_sectors <= 0:
            raise ConfigurationError("partition must hold data")
        if self.sector_bytes * 8 % (self.mac_tag_bytes * 8) != 0:
            raise ConfigurationError("MAC tags must pack into sectors")

    # -- counters -----------------------------------------------------------

    @property
    def counter_fetch_bytes(self) -> int:
        """Bytes pulled in when a counter misses (the hashing unit)."""
        if self.design is GranularityDesign.BLOCK_128:
            return self.line_bytes
        return self.sector_bytes

    @property
    def counter_sectors(self) -> int:
        """Total 32 B counter sectors in the partition."""
        return -(-self.data_sectors // self.sectors_per_counter_sector)

    def counter_sector_index(self, data_sector: int) -> int:
        self._check(data_sector)
        return data_sector // self.sectors_per_counter_sector

    def counter_location(self, data_sector: int) -> Tuple[int, int]:
        """(cache line address, sector mask) of the sector's counter.

        The mask covers the full hashing unit — the whole 128 B line for
        the coarse design, a single 32 B sector for the fine designs —
        because verification needs the complete hashed unit present.
        """
        idx = self.counter_sector_index(data_sector)
        byte_addr = idx * self.sector_bytes
        line = byte_addr - (byte_addr % self.line_bytes)
        if self.design is GranularityDesign.BLOCK_128:
            mask = (1 << (self.line_bytes // self.sector_bytes)) - 1
        else:
            mask = 1 << ((byte_addr % self.line_bytes) // self.sector_bytes)
        return line, mask

    def counter_unit_locator(self) -> Callable[[int], Tuple[int, int]]:
        """Tree leaf -> (cache line address, sector mask) of its counters.

        A leaf is the counter hashing unit, so the locator gives the
        :meth:`counter_location` of every data sector under the leaf
        (:meth:`bmt_leaf_indices`). The batch phases cut runs on the
        leaf and locate each run once; the locator trusts its input.
        """
        return _unit_locator(self.counter_fetch_bytes, self.line_bytes,
                             self.sector_bytes)

    # -- MACs ---------------------------------------------------------------

    @property
    def macs_per_sector(self) -> int:
        return self.sector_bytes // self.mac_tag_bytes

    @property
    def mac_sectors(self) -> int:
        return -(-self.data_sectors // self.macs_per_sector)

    def mac_location(self, data_sector: int) -> Tuple[int, int]:
        """(cache line address, sector mask) of the sector's MAC.

        MACs verify individual sectors, so even the coarse design only
        needs the one 32 B MAC sector (PSSM's sectored MAC cache works
        for both reads and writes).
        """
        self._check(data_sector)
        idx = data_sector // self.macs_per_sector
        byte_addr = idx * self.sector_bytes
        line = byte_addr - (byte_addr % self.line_bytes)
        mask = 1 << ((byte_addr % self.line_bytes) // self.sector_bytes)
        return line, mask

    def mac_sector_indices(self, data_sectors: np.ndarray) -> np.ndarray:
        """Each data sector's MAC sector: the unit index the MAC phases
        cut runs on (input checked by the caller)."""
        return data_sectors // self.macs_per_sector

    def mac_unit_locator(self) -> Callable[[int], Tuple[int, int]]:
        """MAC sector index -> (cache line address, sector mask): the
        :meth:`mac_location` of every data sector the MAC sector covers
        (:meth:`mac_sector_indices`). Trusts its input."""
        return _unit_locator(self.sector_bytes, self.line_bytes,
                             self.sector_bytes)

    # -- BMT ------------------------------------------------------------------

    def bmt_geometry(self) -> BmtGeometry:
        """Integrity-tree shape implied by the granularity design.

        Memoized per layout value: the partitions of one design point
        share one geometry, and with it the level tables it memoizes.
        """
        return _bmt_geometry(self)

    @property
    def counter_sectors_per_leaf(self) -> int:
        """Counter sectors hashed together as one tree leaf."""
        return self.counter_fetch_bytes // self.sector_bytes

    @property
    def sectors_per_leaf(self) -> int:
        """Data sectors whose counters one tree leaf covers."""
        return self.sectors_per_counter_sector * self.counter_sectors_per_leaf

    def bmt_leaf_index(self, data_sector: int) -> int:
        """Tree leaf protecting this sector's counter."""
        return self.leaf_of_counter_sector(self.counter_sector_index(data_sector))

    def leaf_of_counter_sector(self, counter_sector: int) -> int:
        """Tree leaf of a counter sector: its hashing unit's index."""
        return counter_sector // self.counter_sectors_per_leaf

    def bmt_leaf_indices(self, data_sectors: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`bmt_leaf_index`: the unit index the counter
        phases cut runs on (input checked by the caller)."""
        return data_sectors // self.sectors_per_leaf

    # -- storage summaries ------------------------------------------------------

    def counter_storage_bytes(self) -> int:
        return self.counter_sectors * self.sector_bytes

    def mac_storage_bytes(self) -> int:
        return self.mac_sectors * self.sector_bytes

    def bmt_storage_bytes(self) -> int:
        return self.bmt_geometry().storage_bytes

    def _check(self, data_sector: int) -> None:
        if not 0 <= data_sector < self.data_sectors:
            raise ValueError(
                f"data sector {data_sector} outside partition of "
                f"{self.data_sectors} sectors"
            )

    def check_sectors(self, data_sectors: np.ndarray) -> None:
        """Raise ValueError unless every sector lies in the partition."""
        if data_sectors.size == 0:
            return
        lo = int(data_sectors.min())
        hi = int(data_sectors.max())
        if lo < 0 or hi >= self.data_sectors:
            bad = lo if lo < 0 else hi
            raise ValueError(
                f"data sector {bad} outside partition of "
                f"{self.data_sectors} sectors"
            )


@lru_cache(maxsize=256)
def _bmt_geometry(layout: MetadataLayout) -> BmtGeometry:
    if layout.design is GranularityDesign.BLOCK_128:
        leaves = -(-layout.counter_sectors * layout.sector_bytes
                   // layout.line_bytes)
        return BmtGeometry(
            num_leaves=max(1, leaves),
            arity=layout.tree_arity_128,
            node_bytes=layout.line_bytes,
        )
    if layout.design is GranularityDesign.LEAF_32_TREE_128:
        return BmtGeometry(
            num_leaves=layout.counter_sectors,
            arity=layout.tree_arity_128,
            node_bytes=layout.line_bytes,
        )
    return BmtGeometry(
        num_leaves=layout.counter_sectors,
        arity=layout.tree_arity_128 // (layout.line_bytes // layout.sector_bytes),
        node_bytes=layout.sector_bytes,
    )


@lru_cache(maxsize=None)
def _unit_locator(unit_bytes: int, line_bytes: int, sector_bytes: int):
    """Unit index -> (line address, sector mask) for metadata units of
    *unit_bytes*, packed back to back into lines of *line_bytes*.

    One closure per geometry, shared by every layout of that geometry.
    """
    per_line = line_bytes // unit_bytes
    unit_sectors = unit_bytes // sector_bytes
    masks = tuple(
        ((1 << unit_sectors) - 1) << (slot * unit_sectors)
        for slot in range(per_line)
    )

    def locate(unit: int) -> Tuple[int, int]:
        line, slot = divmod(unit, per_line)
        return line * line_bytes, masks[slot]

    return locate


def compact_layout(
    data_sectors: int,
    counters_per_compact_block: int,
    design: GranularityDesign = GranularityDesign.ALL_32,
) -> MetadataLayout:
    """Layout for the compact-counter mirror layer.

    One 32 B compact block covers ``counters_per_compact_block`` data
    sectors (64 for the 3-bit designs, 128 for 2-bit), so the mirror
    layer's counter space — and its mini-BMT — shrink by the compaction
    factor, which is what buys the improved cacheability.
    """
    return MetadataLayout(
        data_sectors=data_sectors,
        design=design,
        sectors_per_counter_sector=counters_per_compact_block,
    )
