"""Split encryption counters (Yan et al.), in PSSM's sectored variant.

Each 32-byte data sector owns a small *minor* counter; groups of sectors
share one 64-bit *major* counter. The encryption counter of a sector is
the concatenation ``major || minor``, so a minor overflow increments the
shared major and forces re-encryption of every sector in the group
(their effective counters all change).

With the default geometry, one 32-byte counter *sector* packs a
64-bit major plus 32 six-bit minors (8 B + 24 B), covering 32 data
sectors = 1 KiB of data; a 128-byte counter block covers 4 KiB. These
are the numbers behind the metadata-layout arithmetic in
:mod:`repro.metadata.layout`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.common.errors import ConfigurationError, CounterOverflowError


@dataclass(frozen=True)
class SplitCounterConfig:
    """Geometry of the split-counter organization."""

    minor_bits: int = 6
    major_bits: int = 64
    sectors_per_group: int = 32

    def __post_init__(self) -> None:
        if self.minor_bits <= 0 or self.major_bits <= 0:
            raise ConfigurationError("counter widths must be positive")
        if self.sectors_per_group <= 0:
            raise ConfigurationError("group must contain at least one sector")
        minor_storage = self.sectors_per_group * self.minor_bits
        if minor_storage % 8 != 0:
            raise ConfigurationError(
                "minor counters of a group must pack to whole bytes"
            )

    @property
    def minor_limit(self) -> int:
        """First minor value that no longer fits (overflow trigger)."""
        return 1 << self.minor_bits

    @property
    def group_bytes(self) -> int:
        """Storage for one group: major + packed minors."""
        return self.major_bits // 8 + self.sectors_per_group * self.minor_bits // 8


@dataclass(frozen=True)
class IncrementOutcome:
    """What happened when a sector's counter was bumped."""

    major: int
    minor: int
    minor_overflowed: bool
    #: Sectors whose ciphertext must be regenerated because the shared
    #: major changed (empty unless ``minor_overflowed``).
    reencrypted_sectors: "tuple[int, ...]" = ()


class SplitCounterStore:
    """Counter state for one partition, indexed by local sector number.

    Storage is sparse: untouched sectors implicitly hold (major=0,
    minor=0), which is exactly the paper's read-only-data observation —
    most GPU data is never written, so most counters stay zero.
    """

    def __init__(self, config: SplitCounterConfig = SplitCounterConfig()) -> None:
        self.config = config
        self._minors: Dict[int, int] = {}
        self._majors: Dict[int, int] = {}
        #: Total minor overflows observed (re-encryption events).
        self.overflow_events = 0

    def group_of(self, sector_index: int) -> int:
        return sector_index // self.config.sectors_per_group

    def value(self, sector_index: int) -> "tuple[int, int]":
        """Return (major, minor) for a sector."""
        if sector_index < 0:
            raise ValueError("sector index must be non-negative")
        return (
            self._majors.get(self.group_of(sector_index), 0),
            self._minors.get(sector_index, 0),
        )

    def combined(self, sector_index: int) -> int:
        """Pack (major, minor) into the integer used as encryption tweak."""
        major, minor = self.value(sector_index)
        return (major << self.config.minor_bits) | minor

    def increment(self, sector_index: int) -> IncrementOutcome:
        """Advance the sector's counter for a write.

        On minor overflow the group's major counter increments, all
        minors of the group reset to zero, and the affected sector list
        is reported so a functional engine can re-encrypt them.
        """
        if sector_index < 0:
            raise ValueError("sector index must be non-negative")
        group = self.group_of(sector_index)
        minor = self._minors.get(sector_index, 0) + 1
        if minor < self.config.minor_limit:
            self._minors[sector_index] = minor
            return IncrementOutcome(
                major=self._majors.get(group, 0),
                minor=minor,
                minor_overflowed=False,
            )

        major = self._majors.get(group, 0) + 1
        if major >= (1 << self.config.major_bits):
            raise CounterOverflowError(
                f"major counter exhausted for group {group}"
            )
        self._majors[group] = major
        self.overflow_events += 1
        base = group * self.config.sectors_per_group
        affected = tuple(range(base, base + self.config.sectors_per_group))
        for s in affected:
            self._minors.pop(s, None)
        # The written sector immediately advances to minor=1 under the
        # new major so its tweak is unique among the reset group.
        self._minors[sector_index] = 1
        return IncrementOutcome(
            major=major,
            minor=1,
            minor_overflowed=True,
            reencrypted_sectors=affected,
        )

    def increment_fast(self, sector_index: int):
        """Allocation-free :meth:`increment` for the batch replay path.

        State transitions are identical; instead of an
        :class:`IncrementOutcome` it returns ``None`` on the common
        no-overflow path and the re-encrypted sector tuple on minor
        overflow. The caller guarantees ``sector_index >= 0`` (the
        batch layer bounds-checks whole runs up front).
        """
        minors = self._minors
        minor = minors.get(sector_index, 0) + 1
        if minor < self.config.minor_limit:
            minors[sector_index] = minor
            return None
        group = sector_index // self.config.sectors_per_group
        major = self._majors.get(group, 0) + 1
        if major >= (1 << self.config.major_bits):
            raise CounterOverflowError(
                f"major counter exhausted for group {group}"
            )
        self._majors[group] = major
        self.overflow_events += 1
        base = group * self.config.sectors_per_group
        affected = tuple(range(base, base + self.config.sectors_per_group))
        for s in affected:
            minors.pop(s, None)
        minors[sector_index] = 1
        return affected

    def bulk_increment_safe(self, sectors, counts) -> bool:
        """True when ``counts[i]`` increments of ``sectors[i]`` cannot
        overflow any minor — the precondition for :meth:`bulk_increment`.

        Callers pass each sector once with its total increment count;
        under that precondition the final state is independent of the
        order the single increments would have interleaved in.
        """
        minors = self._minors
        get = minors.get
        limit = self.config.minor_limit
        for s, c in zip(sectors, counts):
            if get(s, 0) + c >= limit:
                return False
        return True

    def bulk_increment(self, sectors, counts) -> None:
        """Apply per-sector increment totals checked by
        :meth:`bulk_increment_safe` (overflow-free, so order-free)."""
        minors = self._minors
        get = minors.get
        for s, c in zip(sectors, counts):
            minors[s] = get(s, 0) + c

    def state_summary(self):
        """Canonical full-state value for differential comparison.

        Plain dicts are canonicalized by sorting: batch replay may
        insert keys in unique-sector order rather than event order, and
        key insertion order carries no counter semantics.
        """
        return (
            sorted(self._minors.items()),
            sorted(self._majors.items()),
            self.overflow_events,
        )

    def touched_sectors(self) -> int:
        """Number of sectors with a nonzero minor (for statistics)."""
        return len(self._minors)

    def load(self, sector_index: int, major: int, minor: int) -> None:
        """Install a (major, minor) pair directly (crash recovery).

        Rebuilding counter state from a persistent image must restore
        exact values rather than replay increments; zero values restore
        the sparse default representation.
        """
        if sector_index < 0:
            raise ValueError("sector index must be non-negative")
        if not 0 <= minor < self.config.minor_limit:
            raise ValueError(f"minor {minor} out of range")
        if not 0 <= major < (1 << self.config.major_bits):
            raise ValueError(f"major {major} out of range")
        group = self.group_of(sector_index)
        if minor:
            self._minors[sector_index] = minor
        else:
            self._minors.pop(sector_index, None)
        if major:
            self._majors[group] = major
        else:
            self._majors.pop(group, None)
