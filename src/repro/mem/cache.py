"""Set-associative sectored caches.

All on-chip storage in the model — L2 data banks and the per-partition
metadata caches (counter / MAC / BMT / compact layers) — is an instance
of :class:`SectoredCache`. Lines carry per-sector valid and dirty bits;
an access names a line plus a sector mask, and the cache answers which
sectors hit, which must be fetched, and what got evicted.

Sectoring is load-bearing for the paper: PSSM's central claim is that
fetching only the touched 32-byte sectors of a metadata line avoids
useless traffic, while the BMT's 128-byte hashing granularity forces the
counter cache to fetch whole lines anyway — the tension Plutus's
finer-granularity design resolves. Setting ``sectored=False`` reproduces
a conventional whole-line cache for the ablations.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Tuple

from repro.common.bitops import popcount
from repro.common.errors import ConfigurationError
from repro.obs.session import active as _obs_active


@dataclass(frozen=True)
class CacheConfig:
    """Static geometry of one cache instance."""

    name: str
    size_bytes: int
    line_bytes: int = 128
    ways: int = 4
    sector_bytes: int = 32
    sectored: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.size_bytes % self.line_bytes != 0:
            raise ConfigurationError(
                f"{self.name}: size {self.size_bytes} not a multiple of line size"
            )
        if self.line_bytes % self.sector_bytes != 0:
            raise ConfigurationError(
                f"{self.name}: line size must be a multiple of sector size"
            )
        num_lines = self.size_bytes // self.line_bytes
        if num_lines % self.ways != 0:
            raise ConfigurationError(
                f"{self.name}: {num_lines} lines not divisible by {self.ways} ways"
            )
        # Set counts need not be powers of two (Volta's L2 banks have 96
        # sets); indexing is by modulo, which handles any count.

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways

    @property
    def sectors_per_line(self) -> int:
        return self.line_bytes // self.sector_bytes

    @property
    def full_mask(self) -> int:
        return (1 << self.sectors_per_line) - 1

    @cached_property
    def hot_geometry(self) -> Tuple:
        """What a cache reads on every access: line bytes, set count,
        ways, full sector mask, sectored flag, the popcount table and
        the set fold's shift ladder (see :class:`SectoredCache`).

        Derived once per config and shared by every cache built from it
        (each partition's engine builds the same caches; cached_property
        writes the instance ``__dict__``, which a frozen dataclass
        permits).
        """
        return (
            self.line_bytes, self.num_sets, self.ways, self.full_mask,
            self.sectored, _popcount_table(self.sectors_per_line),
            _LADDERS.get(self.num_sets),
        )


@dataclass
class CacheStats:
    """Aggregate hit/miss/eviction counters for one cache."""

    accesses: int = 0
    sector_hits: int = 0
    sector_misses: int = 0
    line_evictions: int = 0
    dirty_evictions: int = 0

    @property
    def sector_hit_rate(self) -> float:
        probed = self.sector_hits + self.sector_misses
        return self.sector_hits / probed if probed else 0.0


@dataclass
class Eviction:
    """A line pushed out of the cache, with its dirty sectors."""

    line_addr: int
    dirty_mask: int

    @property
    def dirty_sector_count(self) -> int:
        return popcount(self.dirty_mask)


@dataclass
class AccessResult:
    """Outcome of one cache access.

    ``miss_mask`` names the sectors the caller must fetch from the next
    level; ``evictions`` are writebacks the caller must perform.
    """

    hit_mask: int
    miss_mask: int
    evictions: List[Eviction] = field(default_factory=list)

    @property
    def is_full_hit(self) -> bool:
        return self.miss_mask == 0

    @property
    def miss_sector_count(self) -> int:
        return popcount(self.miss_mask)


#: Line indices the shift-ladder set fold covers (its first step
#: folds 64 bits).
_LADDER_LIMIT = 1 << 64
#: Set count 2^b, b a power of two -> its fold's shift ladder, shared by
#: every cache of that count (a tuple per cache raises peak RSS).
_LADDERS = {
    1 << bits: tuple(s for s in (32, 16, 8, 4, 2, 1) if s >= bits)
    for bits in (1, 2, 4, 8, 16, 32)
}


@lru_cache
def _popcount_table(sectors: int) -> Optional[Tuple[int, ...]]:
    """Popcount of every mask over *sectors* sector bits, shared by every
    cache of that line width (each partition builds the same caches);
    None for lines of more than 16 sectors."""
    if sectors > 16:
        return None
    return tuple(bin(m).count("1") for m in range(1 << sectors))


class _Line:
    """A resident line's sector state and the LRU order of its set.

    The set's ``OrderedDict`` holds only line addresses, so no reference
    cycle forms and a dropped cache frees by reference counting.
    """

    __slots__ = ("valid_mask", "dirty_mask", "lru")

    def __init__(self, lru: "OrderedDict[int, None]") -> None:
        self.valid_mask = 0
        self.dirty_mask = 0
        self.lru = lru


class SectoredCache:
    """LRU set-associative cache with per-sector valid/dirty state.

    Addresses are opaque non-negative integers; callers may present
    physical addresses, partition-local metadata addresses, or abstract
    node indices — the cache only requires that equal lines have equal
    ``line_addr``.

    Resident lines live in one map, line address -> :class:`_Line`, and
    each line names its set's LRU order: a hit is one ``get`` plus one
    ``move_to_end``, and only a miss folds the address into a set index.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        # Hot-path geometry, derived once per config. Popcounts of
        # sector masks come from a shared table when lines are narrow
        # enough (the 128 B / 32 B metadata lines have only 4 sectors),
        # and a set count 2^b with b a power of two (2, 4, 16, 256 sets)
        # folds by a fixed shift ladder; see :meth:`_set_index`.
        (self._line_bytes, self._num_sets, self._ways, self._full_mask,
         self._sectored, self._pc_table,
         self._fold_shifts) = config.hot_geometry
        #: Resident lines: line_addr -> _Line.
        self._lines: Dict[int, _Line] = {}
        # One OrderedDict of line addresses per set, in LRU order
        # (insertion order with move_to_end on touch).
        self._sets: List["OrderedDict[int, None]"] = [
            OrderedDict() for _ in range(self._num_sets)
        ]
        # Observability binds at construction: instances created under an
        # active session publish hit/miss/eviction counters aggregated by
        # cache *family* — the name up to any partition index, so every
        # partition's "ctr" cache feeds "cache.ctr.*". Disabled sessions
        # leave the slots None and an access pays one check.
        obs = _obs_active()
        if obs.enabled:
            family = config.name.split("[", 1)[0]
            registry = obs.registry
            self._m_hits = registry.counter(f"cache.{family}.sector_hits")
            self._m_misses = registry.counter(f"cache.{family}.sector_misses")
            self._m_evictions = registry.counter(
                f"cache.{family}.line_evictions"
            )
        else:
            self._m_hits = None
            self._m_misses = None
            self._m_evictions = None

    def _set_index(self, line_addr: int) -> int:
        """XOR-folded set index.

        Plain modulo indexing pathologically conflicts for metadata
        address spaces whose regions (e.g. integrity-tree levels) start
        at large power-of-two offsets — every level of a tree walk would
        land in one set and the walk would thrash itself. Folding the
        upper line-index bits into the index (as real cache hash
        functions do) decorrelates those strides.

        A set count 2^b with b a power of two (2, 4, 16, 256 sets) folds
        by a fixed shift ladder, x ^= x >> 32 down to x >> b: the XOR of
        the index's base-2^b digits that the loop below computes, for
        line indices below 2^64. Only a miss needs the set, so only a
        miss calls this.
        """
        line = line_addr // self._line_bytes
        sets = self._num_sets
        shifts = self._fold_shifts
        if shifts is not None and line < _LADDER_LIMIT:
            for shift in shifts:
                line ^= line >> shift
            return line & (sets - 1)
        if sets == 1:
            return 0  # fully-associative: the fold below cannot shrink line
        folded = 0
        while line:
            folded ^= line % sets
            line //= sets
        # XOR of residues can exceed sets-1 when the set count is not a
        # power of two (e.g. Volta's 96-set L2 banks); reduce once more.
        return folded % sets

    def probe(self, line_addr: int, sector_mask: int) -> Tuple[int, int]:
        """Hit/miss masks without updating state or statistics."""
        mask = sector_mask & self._full_mask
        if not mask:
            raise ValueError("sector mask selects no sectors")
        if not self._sectored:
            mask = self._full_mask
        line = self._lines.get(line_addr)
        if line is None:
            return 0, mask
        hit = mask & line.valid_mask
        return hit, mask ^ hit

    def access(
        self, line_addr: int, sector_mask: int, write: bool = False
    ) -> AccessResult:
        """Look up *sector_mask* of the line, allocating on miss.

        Missing sectors are filled (the caller is responsible for
        generating the corresponding fetch traffic). On a write, the
        touched sectors are marked dirty. Victim lines surface in the
        result so the caller can issue writebacks for dirty sectors.
        """
        miss_mask, _misses, evictions = self.access_run_raw(
            line_addr, sector_mask, write, 1
        )
        mask = (sector_mask & self._full_mask if self._sectored
                else self._full_mask)
        return AccessResult(hit_mask=mask ^ miss_mask, miss_mask=miss_mask,
                            evictions=list(evictions))

    def access_run_raw(
        self, line_addr: int, sector_mask: int, write: bool, count: int
    ):
        """*count* consecutive identical accesses, compressed to one.

        State- and stats-identical to calling :meth:`access` *count*
        times with the same arguments: after the first access the line
        is resident with every masked sector valid (and dirty, on a
        write), so each repeat is a full hit that moves the line to the
        MRU slot it already occupies and evicts nothing. The batch
        replay layer collapses a same-location run of metadata lookups
        into one call, the BMT walk and the L2 pass call it with
        ``count=1``, and :meth:`access` wraps it.

        At that rate an :class:`AccessResult` allocation and its
        popcount properties would dominate, so the result is a plain
        ``(miss_mask, miss_sector_count, evictions)`` tuple of the first
        access, with an empty-tuple placeholder when nothing dirty left
        the cache.
        """
        full = self._full_mask
        mask = sector_mask & full
        if not mask:
            raise ValueError("sector mask selects no sectors")
        if not self._sectored:
            # Non-sectored caches always operate on the whole line.
            mask = full
        stats = self.stats
        stats.accesses += count
        evictions = ()
        lines = self._lines
        line = lines.get(line_addr)
        if line is None:
            set_ = self._sets[self._set_index(line_addr)]
            if len(set_) >= self._ways:
                victim_addr = set_.popitem(last=False)[0]
                victim = lines.pop(victim_addr)
                stats.line_evictions += 1
                if self._m_evictions is not None:
                    self._m_evictions.inc()
                if victim.dirty_mask:
                    stats.dirty_evictions += 1
                    evictions = (Eviction(victim_addr, victim.dirty_mask),)
            line = lines[line_addr] = _Line(set_)
            set_[line_addr] = None
        else:
            line.lru.move_to_end(line_addr)

        valid = line.valid_mask
        miss_mask = mask & ~valid
        # Only the first of the *count* accesses can miss.
        pc = self._pc_table
        if pc is not None:
            misses = pc[miss_mask]
            hits = pc[mask] * count - misses
        else:
            misses = popcount(miss_mask)
            hits = popcount(mask) * count - misses
        stats.sector_hits += hits
        stats.sector_misses += misses
        if self._m_hits is not None:
            if hits:
                self._m_hits.inc(hits)
            if misses:
                self._m_misses.inc(misses)

        line.valid_mask = valid | mask
        if write:
            line.dirty_mask |= mask
        return miss_mask, misses, evictions

    def fill(self, line_addr: int, sector_mask: int) -> AccessResult:
        """Install sectors without counting a demand access (prefetch/fill)."""
        saved = self.stats.accesses
        result = self.access(line_addr, sector_mask, write=False)
        self.stats.accesses = saved
        return result

    def mark_dirty(self, line_addr: int, sector_mask: int) -> None:
        """Set dirty bits on already-resident sectors."""
        line = self._lines.get(line_addr)
        if line is not None:
            line.dirty_mask |= sector_mask & line.valid_mask

    def contains(self, line_addr: int, sector_mask: int = -1) -> bool:
        """True if all selected sectors of the line are resident."""
        hit, miss = self.probe(line_addr, sector_mask & self._full_mask or self._full_mask)
        return miss == 0 and hit != 0

    def invalidate(self, line_addr: int) -> Optional[Eviction]:
        """Drop a line, returning its dirty sectors if any."""
        line = self._lines.pop(line_addr, None)
        if line is None:
            return None
        del line.lru[line_addr]
        if line.dirty_mask:
            return Eviction(line_addr, line.dirty_mask)
        return None

    def flush(self) -> List[Eviction]:
        """Empty the cache, returning every dirty line for writeback.

        Dirty lines come set by set, each set in LRU order.
        """
        lines = self._lines
        if not lines:
            return []
        dirty: List[Eviction] = []
        for set_ in self._sets:
            for addr in set_:
                dirty_mask = lines[addr].dirty_mask
                if dirty_mask:
                    dirty.append(Eviction(addr, dirty_mask))
            set_.clear()
        lines.clear()
        return dirty

    def resident_lines(self) -> Dict[int, int]:
        """Map of resident line address -> valid sector mask (for tests)."""
        return {addr: line.valid_mask for addr, line in self._lines.items()}

    def state_summary(self):
        """Canonical full-state value for differential comparison.

        Captures everything future behavior depends on: per-set LRU
        order (insertion order of the OrderedDicts), per-line valid and
        dirty masks, and the aggregate statistics. Two caches with equal
        summaries are behaviorally indistinguishable from here on.
        """
        lines = self._lines
        sets = [
            [(addr, lines[addr].valid_mask, lines[addr].dirty_mask)
             for addr in set_]
            for set_ in self._sets
        ]
        st = self.stats
        return (
            sets,
            (st.accesses, st.sector_hits, st.sector_misses,
             st.line_evictions, st.dirty_evictions),
        )
