"""Secure-memory engine interface and shared metadata machinery.

A *partition engine* sits where the paper's per-partition security
engines sit: between the L2 bank and the DRAM channel. The GPU simulator
feeds it runs of two event kinds —

* ``on_fill_batch(sectors, values)``: data sectors are being fetched
  from DRAM (L2 read misses) and must be verified/decrypted;
* ``on_writeback_batch(sectors, values)``: dirty data sectors are
  leaving the chip and must be encrypted/authenticated;

— and the engine responds by generating security-metadata traffic into
the partition's :class:`~repro.mem.traffic.TrafficCounter`. Data traffic
itself is accounted by the caller; engines add only the security cost,
which keeps "no security" vs "PSSM" vs "Plutus" trivially comparable.

:class:`MetadataEngine` implements the machinery every design shares:
sectored counter/MAC/BMT caches (2 kB each per partition, Table II),
split counters, lazy BMT maintenance, and the eviction plumbing between
them. Concrete designs (:mod:`repro.secure.pssm`,
:mod:`repro.secure.plutus`, :mod:`repro.secure.common_counters`)
specialize the read/write flows.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple, dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from repro.mem.cache import CacheConfig, SectoredCache
from repro.mem.traffic import Stream, TrafficCounter
from repro.obs.session import active as _obs_active
from repro.metadata.bmt import BmtTraversal
from repro.metadata.layout import GranularityDesign, MetadataLayout
from repro.metadata.split_counter import SplitCounterConfig, SplitCounterStore


@dataclass
class EngineStats:
    """Event counts shared across engine designs."""

    fills: int = 0
    writebacks: int = 0
    counter_fetches: int = 0
    counter_onchip_hits: int = 0
    mac_fetches: int = 0
    mac_fetches_avoided: int = 0
    mac_writes_avoided: int = 0
    value_verified_fills: int = 0
    value_check_failures: int = 0
    compact_only_accesses: int = 0
    compact_double_accesses: int = 0
    original_only_accesses: int = 0
    compact_disable_events: int = 0
    minor_overflows: int = 0
    reencrypted_sectors: int = 0
    wal_appends: int = 0


# A Plutus or PSSM design point has two sides that share no state: the
# counter side (split counters, the compact layer, the counter, compact
# and tree caches, warmup) and the value/MAC side (value cache, MAC
# cache). The sets below are what the value/MAC side decides; the
# counter side decides everything else, the data streams included
# (a minor-counter overflow re-encrypts its group).

#: Streams the value/MAC side moves.
VALUE_MAC_STREAMS = frozenset({Stream.MAC_READ, Stream.MAC_WRITE})

#: ``EngineStats`` fields the value/MAC side counts.
VALUE_MAC_STATS = frozenset({
    "mac_fetches",
    "mac_fetches_avoided",
    "mac_writes_avoided",
    "value_verified_fills",
    "value_check_failures",
})


@dataclass(frozen=True)
class MetadataCacheConfig:
    """Per-partition metadata cache sizing (Table II defaults)."""

    size_bytes: int = 2048
    line_bytes: int = 128
    ways: int = 4
    sector_bytes: int = 32
    sectored: bool = True

    def build(self, family: str) -> SectoredCache:
        """A fresh cache of this sizing; *family* (``ctr``, ``mac``,
        ``bmt``, ``cctr``, ``cbmt``) names its metrics."""
        return SectoredCache(_cache_config(self, family))


@lru_cache(maxsize=None)
def _cache_config(sizing: MetadataCacheConfig, family: str) -> CacheConfig:
    """The validated config of one cache family and sizing, shared by
    every partition's cache (with the geometry it derives)."""
    return CacheConfig(
        name=family,
        size_bytes=sizing.size_bytes,
        line_bytes=sizing.line_bytes,
        ways=sizing.ways,
        sector_bytes=sizing.sector_bytes,
        sectored=sizing.sectored,
    )


class PartitionEngine:
    """Interface of one partition's security engine."""

    #: Human-readable design name, overridden by subclasses.
    name = "abstract"

    def __init__(self, partition_id: int, data_sectors: int,
                 traffic: TrafficCounter) -> None:
        self.partition_id = partition_id
        self.data_sectors = data_sectors
        self.traffic = traffic
        self.stats = EngineStats()
        #: Observability session captured at construction (disabled
        #: singleton by default); engines record span-ring events into
        #: it and the replay loop polls :meth:`obs_snapshot`.
        self.obs = _obs_active()

    # -- the hooks (ARCHITECTURE.md § The batch contract) ------------------
    #
    # Replay delivers consecutive same-kind events of one partition as a
    # single call, a *run*. A run's result must not depend on where the
    # runs were cut: one call over a run leaves the engine in exactly
    # the state the same events split into shorter runs (down to length
    # 1) would. A hook that rejects a run raises ValueError before it
    # changes any state.

    def on_fill_batch(self, sector_indices, values) -> None:
        """Handle a run of data-sector fetches from DRAM (L2 read misses).

        ``values[i]`` is the 32-byte plaintext image of the i-th sector,
        or None when the trace carried none.
        """
        raise NotImplementedError

    def on_writeback_batch(self, sector_indices, values) -> None:
        """Handle a run of dirty data-sector evictions to DRAM."""
        raise NotImplementedError

    def warm_counters_batch(self, sector_indices, passes: int = 1) -> None:
        """Advance counter state for *passes* pre-window write rounds.

        Simulated windows are slices of much longer executions; the
        writes that happened before the window have already advanced the
        encryption counters (and saturated compact counters, demoted
        common-counter regions, ...). Warmup replays the window's
        writeback sectors through this hook so counter *state* matches a
        long-running execution while measured traffic stays clean. The
        result is that of ``passes`` pass-major rounds over the sector
        list; implementations may collapse the rounds only where that is
        provably order-free, which is when no minor counter can
        overflow. Compact saturation crossings are counted, not
        replayed: how many count does not depend on order.
        """
        raise NotImplementedError

    def finalize(self) -> None:
        """Drain dirty metadata at end of simulation (kernel boundary)."""

    def obs_snapshot(self) -> Dict[str, int]:
        """Cumulative observability quantities for interval sampling.

        The replay loop polls this at each snapshot interval and records
        *deltas* into time-series samplers (e.g. value-cache hit rate
        over trace position). Keys are design-specific; absent keys read
        as zero. Only called when observability is enabled.
        """
        return {}

    # -- differential state digest ----------------------------------------

    def _state_summary(self) -> List:
        """Everything the engine's future behavior depends on.

        Subclasses extend the list with their own structures. Ordered
        containers (cache LRU order) keep their order; plain dicts and
        sets are canonicalized by sorting, because the batch contract
        permits reordering key insertions whose order carries no
        semantics (see the per-structure ``state_summary`` helpers).
        """
        return [astuple(self.stats)]

    def state_digest(self) -> str:
        """Stable hash of the complete engine state.

        Two engines with equal digests are behaviorally
        indistinguishable from here on — the comparison surface of the
        cut-invariance suite and the recorded scalar oracle, strictly
        stronger than the traffic/stats identity the conformance
        invariants check.
        """
        summary = repr(self._state_summary()).encode()
        return hashlib.sha256(summary).hexdigest()


class NoSecurityEngine(PartitionEngine):
    """The insecure baseline: data moves, no metadata exists."""

    name = "no-security"

    # Only the counts matter: runs are O(1), and the lazy value
    # sequence is never materialized.

    def on_fill_batch(self, sector_indices, values) -> None:
        self.stats.fills += len(sector_indices)

    def on_writeback_batch(self, sector_indices, values) -> None:
        self.stats.writebacks += len(sector_indices)

    def warm_counters_batch(self, sector_indices, passes: int = 1) -> None:
        pass


class MetadataEngine(PartitionEngine):
    """Shared counter/MAC/BMT machinery for the secured designs."""

    #: Counter fetches verify against the integrity tree and dirty
    #: counter evictions update it. Fig. 20's designs assume the tree
    #: away (``PlutusEngine(eliminate_tree=True)``) and clear it.
    tree_enabled = True

    def __init__(
        self,
        partition_id: int,
        data_sectors: int,
        traffic: TrafficCounter,
        design: GranularityDesign = GranularityDesign.BLOCK_128,
        mac_tag_bytes: int = 8,
        cache_config: MetadataCacheConfig = MetadataCacheConfig(),
        counter_config: SplitCounterConfig = SplitCounterConfig(),
        lazy_update: bool = True,
    ) -> None:
        super().__init__(partition_id, data_sectors, traffic)
        self.layout = MetadataLayout(
            data_sectors=data_sectors,
            design=design,
            mac_tag_bytes=mac_tag_bytes,
            sectors_per_counter_sector=counter_config.sectors_per_group,
        )
        self.counters = SplitCounterStore(counter_config)
        self.counter_cache = cache_config.build("ctr")
        self.mac_cache = cache_config.build("mac")
        self.bmt_cache = cache_config.build("bmt")
        self.bmt = BmtTraversal(
            self.layout.bmt_geometry(),
            self.bmt_cache,
            traffic,
            read_stream=Stream.BMT_READ,
            write_stream=Stream.BMT_WRITE,
            lazy_update=lazy_update,
        )

    # -- eviction plumbing ---------------------------------------------------

    def _drain_counter_evictions(self, evictions) -> None:
        """Drain the counter cache's evictions (see :meth:`_drain_counters`)."""
        self._drain_counters(evictions, self.counter_cache, self.layout,
                             self.bmt, Stream.COUNTER_WRITE)

    def _drain_counters(self, evictions, cache: SectoredCache,
                        layout: MetadataLayout, tree: BmtTraversal,
                        stream: Stream) -> None:
        """Write back dirty counter sectors; lazily update their tree leaves.

        A dirty counter block leaving the chip is the moment the lazy
        scheme recomputes its parent hash, so each distinct evicted leaf
        triggers a tree update, in sector order, unless the tree is
        assumed away. Every counter layer (the split counters, Plutus's
        compact mirror) drains through here.
        """
        sector_bytes = cache.config.sector_bytes
        sectors_per_line = cache.config.sectors_per_line
        record = self.traffic.record
        leaf_of = layout.leaf_of_counter_sector
        for ev in evictions:
            count = ev.dirty_sector_count
            record(stream, count * sector_bytes, transactions=count)
            if not self.tree_enabled:
                continue
            dirty = ev.dirty_mask
            first = ev.line_addr // sector_bytes
            leaves: List[int] = []
            for s in range(sectors_per_line):
                if dirty >> s & 1:
                    leaf = leaf_of(first + s)
                    if not leaves or leaves[-1] != leaf:
                        leaves.append(leaf)
            tree.update_leaves(leaves)

    def _drain_mac_evictions(self, evictions) -> None:
        sector_bytes = self.mac_cache.config.sector_bytes
        record = self.traffic.record
        for ev in evictions:
            count = ev.dirty_sector_count
            record(Stream.MAC_WRITE, count * sector_bytes,
                   transactions=count)

    def _checked(self, sector_indices) -> np.ndarray:
        """The run's sectors as int64, after checking every one is in range.

        Hooks call this before they change any state, so a rejected run
        leaves the engine exactly as it was. One reduction decides: a
        negative sector reads as a huge unsigned one.
        """
        sectors = np.asarray(sector_indices, dtype=np.int64)
        if sectors.size and (
            int(sectors.view(np.uint64).max()) >= self.layout.data_sectors
        ):
            self.layout.check_sectors(sectors)
        return sectors

    # -- counter overflow --------------------------------------------------------

    def _reencrypt_group(self, reencrypted_sectors) -> None:
        """Account a major-counter bump's group re-encryption.

        Every sector in the group must be read, re-encrypted under the
        new major, and written back — real data traffic the model
        charges to the data streams. The batch paths call this directly
        with the affected tuple from ``increment_fast``.
        """
        self.stats.minor_overflows += 1
        group = [
            s for s in reencrypted_sectors if s < self.data_sectors
        ]
        if self.obs.enabled:
            self.obs.profiler.event(
                "counter.minor_overflow",
                partition=self.partition_id,
                reencrypted_sectors=len(group),
            )
        self.stats.reencrypted_sectors += len(group)
        nbytes = len(group) * self.layout.sector_bytes
        self.traffic.record(Stream.DATA_READ, nbytes, transactions=len(group))
        self.traffic.record(Stream.DATA_WRITE, nbytes, transactions=len(group))

    # -- run machinery --------------------------------------------------------
    #
    # The helpers below are what the engines compose their hooks from.
    # Each one gives the result of handling the run's events one at a
    # time, in order:
    #
    # * each event's metadata unit is one integer from one numpy
    #   division: the BMT leaf for a counter (a leaf is the counter
    #   hashing unit) or the MAC sector for a MAC;
    # * consecutive events of the same unit touch the same (line, mask)
    #   and collapse into a single ``access_run_raw`` call — the repeats
    #   are full hits by construction, so only bulk hit accounting
    #   remains; the layout's unit locator gives the line and mask once
    #   per run;
    # * per-access miss traffic and fetch stats accumulate in locals and
    #   post once per run (traffic streams and EngineStats are
    #   commutative sums);
    # * tree verification and eviction draining keep their per-event
    #   position relative to every cache-state mutation.
    #
    # Counter-phase and MAC-phase state are disjoint (separate caches,
    # separate streams), which is what legalizes running all counter
    # work of a run before all MAC work.

    def _tree_verifier(self, tree: BmtTraversal):
        """The walk a counter fetch verifies with, or None without a tree."""
        return tree.verify_leaf if self.tree_enabled else None

    @staticmethod
    def _cache_runs(units: np.ndarray, locate, cache: SectoredCache,
                    write: bool, verify, drain) -> Tuple[int, int]:
        """One ``access_run_raw`` per run of equal *units*, in event order.

        *locate* maps a unit to its (line, mask); a run whose access
        misses calls *verify* with its unit, unless *verify* is None,
        and evictions go to *drain*. Returns ``(fetches, miss_sectors)``:
        the runs that missed and the sectors they fetched.
        """
        access_run = cache.access_run_raw
        units_l = units.tolist()
        units_l.append(-1)  # closes the last run
        fetches = miss_sectors = 0
        a = 0
        for b, unit in enumerate(units_l):
            if unit == units_l[a]:
                continue
            run_unit = units_l[a]
            line, mask = locate(run_unit)
            miss_mask, miss_count, evictions = access_run(
                line, mask, write, b - a
            )
            if miss_mask:
                fetches += 1
                miss_sectors += miss_count
                if verify is not None:
                    verify(run_unit)
            if evictions:
                drain(evictions)
            a = b
        return fetches, miss_sectors

    def _post_counter_fetches(self, fetches: int, miss_sectors: int) -> None:
        if fetches:
            self.stats.counter_fetches += fetches
            self.traffic.record(
                Stream.COUNTER_READ,
                miss_sectors * self.layout.sector_bytes,
                transactions=miss_sectors,
            )

    def _batch_counter_reads(self, sectors: np.ndarray) -> None:
        """Counter-read phase of a batched fill run."""
        layout = self.layout
        self._post_counter_fetches(*self._cache_runs(
            layout.bmt_leaf_indices(sectors),
            layout.counter_unit_locator(),
            self.counter_cache,
            False,
            self._tree_verifier(self.bmt),
            self._drain_counter_evictions,
        ))

    def _batch_counter_writes(self, sectors: np.ndarray) -> None:
        """Counter-write phase of a batched writeback run.

        Increments stay in event order (a minor overflow's side effects
        land exactly between its neighbours' increments); only the cache
        accesses of a same-leaf run are compressed, which is legal
        because increments never read cache state.
        """
        layout = self.layout
        locate = layout.counter_unit_locator()
        verify = self._tree_verifier(self.bmt)
        access_run = self.counter_cache.access_run_raw
        drain = self._drain_counter_evictions
        increment = self.counters.increment_fast
        sec_l = sectors.tolist()
        leaves_l = layout.bmt_leaf_indices(sectors).tolist()
        leaves_l.append(-1)  # closes the last run
        fetches = miss_sectors = 0
        a = 0
        for b, leaf in enumerate(leaves_l):
            if leaf == leaves_l[a]:
                continue
            for s in sec_l[a:b]:
                affected = increment(s)
                if affected is not None:
                    self._reencrypt_group(affected)
            run_leaf = leaves_l[a]
            line, mask = locate(run_leaf)
            miss_mask, miss_count, evictions = access_run(
                line, mask, True, b - a
            )
            if miss_mask:
                fetches += 1
                miss_sectors += miss_count
                if verify is not None:
                    verify(run_leaf)
            if evictions:
                drain(evictions)
            a = b
        self._post_counter_fetches(fetches, miss_sectors)

    def _mac_runs(self, sectors: np.ndarray,
                  write: bool) -> Tuple[int, int]:
        """MAC-cache accesses of a run (see :meth:`_cache_runs`)."""
        layout = self.layout
        return self._cache_runs(
            layout.mac_sector_indices(sectors),
            layout.mac_unit_locator(),
            self.mac_cache,
            write,
            None,
            self._drain_mac_evictions,
        )

    def _batch_mac_reads(self, sectors: np.ndarray) -> None:
        """MAC-read phase of a batched fill run."""
        fetches, miss_sectors = self._mac_runs(sectors, False)
        if fetches:
            self.stats.mac_fetches += fetches
            self.traffic.record(
                Stream.MAC_READ,
                miss_sectors * self.layout.sector_bytes,
                transactions=miss_sectors,
            )

    def _batch_mac_writes(self, sectors: np.ndarray) -> None:
        """MAC-write phase of a batched writeback run.

        A miss is a read-modify-write: the fetch is MAC_READ traffic but
        does not count as a demand MAC fetch.
        """
        _fetches, miss_sectors = self._mac_runs(sectors, True)
        if miss_sectors:
            self.traffic.record(
                Stream.MAC_READ,
                miss_sectors * self.layout.sector_bytes,
                transactions=miss_sectors,
            )

    def warm_counters_batch(self, sector_indices, passes: int = 1) -> None:
        """Vectorized counter warmup.

        When no minor counter can overflow across all passes, the
        per-sector totals are order-free and apply in one bulk pass;
        otherwise the exact pass-major order replays (overflow side
        effects depend on interleaving).
        """
        if passes <= 0:
            return
        sectors = self._checked(sector_indices)
        if sectors.size == 0:
            return
        uniq, counts = np.unique(sectors, return_counts=True)
        uniq_l = uniq.tolist()
        totals = (counts * int(passes)).tolist()
        if self.counters.bulk_increment_safe(uniq_l, totals):
            self.counters.bulk_increment(uniq_l, totals)
            return
        increment = self.counters.increment_fast
        sec_l = sectors.tolist()
        for _ in range(passes):
            for s in sec_l:
                increment(s)

    # -- lifecycle -------------------------------------------------------------------

    def finalize(self) -> None:
        """Flush all dirty metadata (counters, MACs, tree nodes)."""
        self._drain_counter_evictions(self.counter_cache.flush())
        self._drain_mac_evictions(self.mac_cache.flush())
        self.bmt.flush()

    def _state_summary(self) -> List:
        summary = super()._state_summary()
        summary.append(self.counter_cache.state_summary())
        summary.append(self.mac_cache.state_summary())
        summary.append(self.bmt_cache.state_summary())
        summary.append(self.counters.state_summary())
        summary.append(self.bmt.root_verifications)
        return summary

    def obs_snapshot(self) -> Dict[str, int]:
        """Shared cumulative quantities (see :meth:`PartitionEngine.obs_snapshot`)."""
        return {
            "fills": self.stats.fills,
            "writebacks": self.stats.writebacks,
            "counter_fetches": self.stats.counter_fetches,
            "mac_fetches": self.stats.mac_fetches,
            "minor_overflows": self.stats.minor_overflows,
        }
