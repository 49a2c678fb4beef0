"""Compact mirrored counters (Plutus idea #2, paper Section IV-D).

A miniature second layer of per-sector encryption counters sits in front
of the standard split counters. Because most GPU data is written rarely,
a 2- or 3-bit counter per 32-byte sector absorbs almost all counter
traffic, and the mini layer's higher density (2x-4x compaction) gives it
far better cacheability — and a far smaller BMT.

Semantics mirror the paper's Figure 13 walk-through:

* value below the saturation code -> the compact counter *is* the
  encryption counter; the original counters are not touched.
* value equal to the saturation code -> the compact access discovers
  saturation and a second access reads the original split counter.
* (adaptive only) when a compact block accumulates ``disable_threshold``
  saturated counters, its on-chip enable bit flips: remaining live
  compact values are synchronized into the original counters once, and
  all further accesses route directly to the originals, eliminating the
  double-access penalty.

The class tracks true per-sector write counts so that functional engines
can derive the exact encryption tweak regardless of which layer serves
the access.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Set

from repro.common.errors import ConfigurationError


class CounterRoute(Enum):
    """Which metadata layer(s) an access must touch."""

    COMPACT_ONLY = "compact_only"
    COMPACT_THEN_ORIGINAL = "compact_then_original"
    ORIGINAL_ONLY = "original_only"


@dataclass(frozen=True)
class CompactCounterConfig:
    """Geometry of one compact-counter design point."""

    width_bits: int
    counters_per_block: int
    adaptive: bool = False
    #: Saturated counters in a block before the adaptive scheme disables
    #: it (paper: 8, i.e. half of the ~25% of counters typically touched).
    disable_threshold: int = 8

    def __post_init__(self) -> None:
        if self.width_bits < 2:
            raise ConfigurationError("compact counters need at least 2 bits")
        if self.counters_per_block <= 0:
            raise ConfigurationError("block must hold at least one counter")
        if self.adaptive and not 0 < self.disable_threshold <= self.counters_per_block:
            raise ConfigurationError("disable threshold outside block capacity")

    @property
    def saturation_value(self) -> int:
        """The reserved all-ones code meaning 'consult the originals'."""
        return (1 << self.width_bits) - 1

    def compaction_vs(self, original_sectors_per_block: int) -> float:
        """Density gain over originals covering the same data."""
        return self.counters_per_block / original_sectors_per_block


#: The three design points evaluated in paper Fig. 17.
DESIGN_2BIT = CompactCounterConfig(width_bits=2, counters_per_block=128)
DESIGN_3BIT = CompactCounterConfig(width_bits=3, counters_per_block=64)
DESIGN_3BIT_ADAPTIVE = CompactCounterConfig(
    width_bits=3, counters_per_block=64, adaptive=True
)


@dataclass(frozen=True)
class CounterAccessPlan:
    """Route plus bookkeeping flags for one counter access."""

    route: CounterRoute
    #: True when this access just saturated the compact counter and its
    #: value must be propagated into the original copy (a write there).
    propagates_to_original: bool = False
    #: True when this write tripped the adaptive disable of the block
    #: (one-time synchronization of the block into the originals).
    disables_block: bool = False


class CompactCounterState:
    """Per-partition compact-counter layer, indexed by local sector number."""

    def __init__(self, config: CompactCounterConfig) -> None:
        self.config = config
        #: True write count per sector (ground truth for tweaks).
        self._writes: Dict[int, int] = {}
        #: Saturated-counter count per compact block (adaptive).
        self._saturated_in_block: Dict[int, int] = {}
        #: Blocks whose enable bit has been cleared (adaptive).
        self._disabled_blocks: Set[int] = set()
        #: Sectors forced to the originals by a split-counter major bump.
        self._forced_original: Set[int] = set()
        #: Statistics.
        self.disable_events = 0
        self.propagation_events = 0

    def block_of(self, sector_index: int) -> int:
        return sector_index // self.config.counters_per_block

    def write_count(self, sector_index: int) -> int:
        """Ground-truth number of writes the sector has received."""
        return self._writes.get(sector_index, 0)

    def encryption_counter(self, sector_index: int) -> int:
        """The tweak-visible counter value (identical in both layers).

        Mirroring means the compact layer and the original layer always
        agree on the sector's logical counter; only *where it is fetched
        from* differs.
        """
        return self.write_count(sector_index)

    def is_block_disabled(self, sector_index: int) -> bool:
        return self.block_of(sector_index) in self._disabled_blocks

    def _is_saturated(self, sector_index: int) -> bool:
        return (
            sector_index in self._forced_original
            or self.write_count(sector_index) >= self.config.saturation_value
        )

    def plan_read(self, sector_index: int) -> CounterAccessPlan:
        """Route a counter *read* (data fetch needing the decrypt tweak)."""
        if self.config.adaptive and self.is_block_disabled(sector_index):
            return CounterAccessPlan(route=CounterRoute.ORIGINAL_ONLY)
        if self._is_saturated(sector_index):
            return CounterAccessPlan(route=CounterRoute.COMPACT_THEN_ORIGINAL)
        return CounterAccessPlan(route=CounterRoute.COMPACT_ONLY)

    def plan_write(self, sector_index: int) -> CounterAccessPlan:
        """Route a counter *increment* (dirty writeback) and apply it."""
        block = self.block_of(sector_index)
        already_saturated = self._is_saturated(sector_index)
        disabled = self.config.adaptive and block in self._disabled_blocks

        self._writes[sector_index] = self.write_count(sector_index) + 1

        if disabled:
            return CounterAccessPlan(route=CounterRoute.ORIGINAL_ONLY)

        if already_saturated:
            # Compact entry pinned at the saturation code; originals
            # track the live count.
            return CounterAccessPlan(route=CounterRoute.COMPACT_THEN_ORIGINAL)

        if self.write_count(sector_index) >= self.config.saturation_value:
            # This write saturates the compact counter: its value is
            # propagated into the original copy now.
            self.propagation_events += 1
            saturated = self._saturated_in_block.get(block, 0) + 1
            self._saturated_in_block[block] = saturated
            disables = (
                self.config.adaptive
                and saturated >= self.config.disable_threshold
            )
            if disables:
                self._disabled_blocks.add(block)
                self.disable_events += 1
            return CounterAccessPlan(
                route=CounterRoute.COMPACT_THEN_ORIGINAL,
                propagates_to_original=True,
                disables_block=disables,
            )

        return CounterAccessPlan(route=CounterRoute.COMPACT_ONLY)

    # -- batch replay support -------------------------------------------------

    def plan_read_codes(self, sector_indices):
        """Vectorized :meth:`plan_read` route codes for a batch (pure).

        Returns ``None`` when every access routes ``COMPACT_ONLY`` (the
        pristine-state fast path), otherwise a list of route codes:
        0 = compact only, 1 = compact then original, 2 = original only.
        """
        if (
            not self._writes
            and not self._forced_original
            and not self._disabled_blocks
        ):
            return None
        adaptive = self.config.adaptive
        disabled = self._disabled_blocks
        forced = self._forced_original
        writes = self._writes
        get = writes.get
        sat = self.config.saturation_value
        per_block = self.config.counters_per_block
        codes = []
        append = codes.append
        for s in sector_indices:
            if adaptive and s // per_block in disabled:
                append(2)
            elif s in forced or get(s, 0) >= sat:
                append(1)
            else:
                append(0)
        return codes

    def plan_write_code(self, sector_index: int) -> int:
        """Allocation-free :meth:`plan_write` for the batch replay path.

        Applies exactly the same state transitions and returns the route
        code (0 = compact only, 1 = compact then original, 2 = original
        only) plus 8 when this write disables the block.
        """
        block = sector_index // self.config.counters_per_block
        writes = self._writes
        w = writes.get(sector_index, 0)
        already_saturated = (
            sector_index in self._forced_original
            or w >= self.config.saturation_value
        )
        disabled = self.config.adaptive and block in self._disabled_blocks
        writes[sector_index] = w = w + 1
        if disabled:
            return 2
        if already_saturated:
            return 1
        if w >= self.config.saturation_value:
            self.propagation_events += 1
            saturated = self._saturated_in_block.get(block, 0) + 1
            self._saturated_in_block[block] = saturated
            if (
                self.config.adaptive
                and saturated >= self.config.disable_threshold
            ):
                self._disabled_blocks.add(block)
                self.disable_events += 1
                return 1 + 8
            return 1
        return 0

    def bulk_writes(self, sectors, counts) -> None:
        """Apply ``counts[i]`` writes of each distinct ``sectors[i]``.

        The result equals :meth:`plan_write_code` called that many times
        per sector in any interleaving, provided nothing forces a sector
        to the originals in between (no minor overflow). Saturation
        crossings are counted, not replayed: a sector crosses once, and
        its crossing counts toward its block unless it is forced or the
        block is disabled. Which crossings of a block count depends on
        order, but how many does not: an adaptive block counts crossings
        until it reaches ``disable_threshold`` and then disables.
        """
        cfg = self.config
        writes = self._writes
        get = writes.get
        sat = cfg.saturation_value
        forced = self._forced_original
        adaptive = cfg.adaptive
        disabled = self._disabled_blocks
        per_block = cfg.counters_per_block
        crossings: Dict[int, int] = {}
        for s, c in zip(sectors, counts):
            w = get(s, 0)
            writes[s] = w + c
            if w < sat <= w + c and s not in forced:
                block = s // per_block
                if not (adaptive and block in disabled):
                    crossings[block] = crossings.get(block, 0) + 1
        saturated = self._saturated_in_block
        for block, n in crossings.items():
            before = saturated.get(block, 0)
            if adaptive:
                # plan_write_code disables at the first crossing that
                # brings the block's count to the threshold.
                room = max(cfg.disable_threshold - before, 1)
                if n >= room:
                    n = room
                    disabled.add(block)
                    self.disable_events += 1
            saturated[block] = before + n
            self.propagation_events += n

    def state_summary(self):
        """Canonical full-state value for differential comparison."""
        return (
            sorted(self._writes.items()),
            sorted(self._saturated_in_block.items()),
            sorted(self._disabled_blocks),
            sorted(self._forced_original),
            self.disable_events,
            self.propagation_events,
        )

    def force_original(self, sector_indices) -> None:
        """Redirect sectors to the originals after a major-counter bump.

        When a split-counter minor overflows, every sector sharing the
        major counter must use the original layer (paper Section IV-D).
        """
        for s in sector_indices:
            self._forced_original.add(s)

    def sync_sectors_for_disable(self) -> int:
        """Original-counter sectors written when a block is disabled.

        The adaptive scheme provides 2x compaction, so one compact block
        maps onto two original counter sectors (paper: "only two original
        counters blocks are needed to synchronize").
        """
        return 2
