"""The Plutus engine: all three bandwidth-saving ideas, independently
toggleable (paper Section IV).

1. *Value-based integrity verification* — a per-partition value cache
   verifies most read fills without touching MAC storage, and proves
   some writebacks verifiable-in-advance so their MAC write is skipped.
2. *Compact mirrored counters* — a miniature counter layer (with its own
   mini-BMT) in front of the split counters; only saturated/disabled
   regions fall back to the original layer.
3. *Fine-grained metadata* — counters and tree nodes are hashed and
   fetched at 32-byte granularity (``GranularityDesign.ALL_32``),
   eliminating PSSM's over-fetch at the cost of a taller tree.

Each toggle isolates one of the paper's ablation figures (15/16/17);
the default configuration is the full Plutus of Fig. 18. The
``eliminate_tree`` flag reproduces Fig. 20's MGX/TNPU-style comparison
where integrity-tree traffic is assumed away entirely.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.common.bitops import split_values
from repro.common.errors import ConfigurationError
from repro.mem.traffic import Stream, TrafficCounter
from repro.metadata.compact import (
    DESIGN_3BIT_ADAPTIVE,
    CompactCounterConfig,
    CompactCounterState,
)
from repro.metadata.layout import GranularityDesign, MetadataLayout
from repro.metadata.bmt import BmtTraversal
from repro.secure.engine import (
    VALUE_MAC_STATS,
    MetadataCacheConfig,
    MetadataEngine,
    PartitionEngine,
)
from repro.secure.value_cache import ValueCache, ValueCacheConfig


#: 32-bit values in one 32-byte sector image: the row of keys each
#: sector gives the value cache.
SECTOR_VALUES = 8


class PlutusEngine(MetadataEngine):
    """Plutus secure-memory engine for one partition."""

    name = "plutus"

    def __init__(
        self,
        partition_id: int,
        data_sectors: int,
        traffic: TrafficCounter,
        mac_tag_bytes: int = 8,
        design: GranularityDesign = GranularityDesign.ALL_32,
        cache_config: MetadataCacheConfig = MetadataCacheConfig(),
        value_cache_config: Optional[ValueCacheConfig] = ValueCacheConfig(),
        compact_config: Optional[CompactCounterConfig] = DESIGN_3BIT_ADAPTIVE,
        lazy_update: bool = True,
        eliminate_tree: bool = False,
        counter_config=None,
    ) -> None:
        from repro.metadata.split_counter import SplitCounterConfig

        super().__init__(
            partition_id,
            data_sectors,
            traffic,
            design=design,
            mac_tag_bytes=mac_tag_bytes,
            cache_config=cache_config,
            lazy_update=lazy_update,
            counter_config=counter_config or SplitCounterConfig(),
        )
        self.tree_enabled = not eliminate_tree
        self._build_value_cache(value_cache_config)

        self.compact: Optional[CompactCounterState] = None
        if compact_config is not None:
            self.compact = CompactCounterState(compact_config)
            # The mirror layer inherits the engine's fetch-granularity
            # design: in the paper's compact-only ablation (Fig. 17) the
            # baseline's 128 B blocks apply to the compact metadata too;
            # only idea #3 shrinks them to 32 B.
            self.compact_layout = MetadataLayout(
                data_sectors=data_sectors,
                design=design,
                sectors_per_counter_sector=compact_config.counters_per_block,
            )
            self.compact_cache = cache_config.build("cctr")
            self.compact_bmt_cache = cache_config.build("cbmt")
            self.compact_bmt = BmtTraversal(
                self.compact_layout.bmt_geometry(),
                self.compact_bmt_cache,
                traffic,
                read_stream=Stream.COMPACT_BMT_READ,
                write_stream=Stream.COMPACT_BMT_WRITE,
                lazy_update=lazy_update,
            )

    def _build_value_cache(
        self, config: Optional[ValueCacheConfig]
    ) -> None:
        """The value cache, if any, and its span-detail profiler.

        A run method requires each sector's values to fit the transient
        region (:meth:`ValueCache.fill_run`), so a cache that cannot
        hold one sector is refused here, before any run.
        """
        self.value_cache = None
        # Per-run value-cache spans only under span_detail profiling;
        # None keeps a run at one attribute check.
        self._value_prof = None
        if config is None:
            return
        if config.transient_capacity < SECTOR_VALUES:
            raise ConfigurationError(
                f"value cache of {config.entries} entries keeps "
                f"{config.transient_capacity} transient entries, fewer "
                f"than the {SECTOR_VALUES} values of one sector"
            )
        self.value_cache = ValueCache(config)
        if self.obs.config.span_detail_active:
            self._value_prof = self.obs.profiler

    # -- compact-counter layer ---------------------------------------------------

    def _drain_compact_evictions(self, evictions) -> None:
        """Drain the compact cache's evictions into the mini BMT."""
        self._drain_counters(evictions, self.compact_cache,
                             self.compact_layout, self.compact_bmt,
                             Stream.COMPACT_COUNTER_WRITE)

    def _sync_block_to_original(self, sector_index: int) -> None:
        """One-time copy of a disabled block's live counters to originals.

        With 2x compaction one compact block spans two original counter
        sectors; both are write-touched (fetch + verify on miss).
        """
        cpb = self.compact.config.counters_per_block
        block = self.compact.block_of(sector_index)
        first_data_sector = block * cpb
        step = self.layout.sectors_per_counter_sector
        for data_sector in range(first_data_sector, first_data_sector + cpb, step):
            if data_sector >= self.data_sectors:
                break
            line, mask = self.layout.counter_location(data_sector)
            result = self.counter_cache.access(line, mask, write=True)
            if result.miss_mask:
                self.traffic.record(
                    Stream.COUNTER_READ,
                    result.miss_sector_count * self.layout.sector_bytes,
                    transactions=result.miss_sector_count,
                )
                if self.tree_enabled:
                    self.bmt.verify_leaf(self.layout.bmt_leaf_index(data_sector))
            self._drain_counter_evictions(result.evictions)

    # -- request flows (paper Fig. 11) --------------------------------------------
    #
    # A Plutus event touches up to four disjoint structures — the compact
    # layer (compact cache + mini BMT), the original layer (counter cache
    # + BMT + split counters), the value cache, and the MAC cache. They
    # form two sides that share no state: the counter side (both counter
    # layers) and the value/MAC side (the value cache, then a MAC phase
    # over the events it could not cover). So a hook runs all of a run's
    # counter work, then all of its value/MAC work, one method per side
    # that the whole engine and the side-only drivers below share. Only
    # the write flow needs care: compact routing decisions and
    # value-cache probes are order-dependent, so both replay per event
    # while the cache accesses around them compress into same-location
    # runs.

    def _batch_value_keys(self, values):
        """Masked value-cache keys per event (None = no image).

        On an event log's value column the keys come straight from the
        image rows (``ColumnValues.masked_u32_rows``: one gather and one
        numpy AND, little-endian like ``split_values`` + ``_key``); a
        log's images are 32 bytes by construction. Any other sequence is
        decoded image by image, raising ValueError when a present image
        is not 32 bytes, before the hook changes any state. Without a
        value cache nothing is decoded and the result is None.
        """
        vc = self.value_cache
        if hasattr(values, "masked_u32_rows"):
            if vc is None:
                return None
            return values.masked_u32_rows(vc.config.key_mask)
        out: List = []
        append = out.append
        for image in values:
            if image is None:
                append(None)
            elif len(image) != 32:
                raise ValueError(
                    f"sector image must be 32 bytes, got {len(image)}"
                )
            elif vc is not None:
                append(vc.mask_keys(split_values(image, 4)))
        return out if vc is not None else None

    def _batch_compact_accesses(self, sectors: np.ndarray, write: bool) -> None:
        """Compact-layer phase of a batched run (fetch + verify on miss)."""
        layout = self.compact_layout
        _fetches, miss_sectors = self._cache_runs(
            layout.bmt_leaf_indices(sectors),
            layout.counter_unit_locator(),
            self.compact_cache,
            write,
            self._tree_verifier(self.compact_bmt),
            self._drain_compact_evictions,
        )
        if miss_sectors:
            self.traffic.record(
                Stream.COMPACT_COUNTER_READ,
                miss_sectors * layout.sector_bytes,
                transactions=miss_sectors,
            )

    def _batch_mirror_writes(self, sectors: np.ndarray) -> None:
        """Batched mirror-hierarchy counter increments (write path).

        Routing decisions (``plan_write_code``), split-counter
        increments, overflow re-encryptions, and adaptive disables all
        replay strictly per event — their side effects feed the very
        next routing decision. Only the cache accesses compress: each
        layer keeps one pending same-leaf run, flushed when the leaf
        changes or when a disable's synchronization is about to touch
        the original counter cache mid-run.
        """
        o_layout = self.layout
        c_layout = self.compact_layout
        sec_l = sectors.tolist()
        o_leaves_l = o_layout.bmt_leaf_indices(sectors).tolist()
        c_leaves_l = c_layout.bmt_leaf_indices(sectors).tolist()
        o_locate = o_layout.counter_unit_locator()
        c_locate = c_layout.counter_unit_locator()
        o_verify = self._tree_verifier(self.bmt)
        c_verify = self._tree_verifier(self.compact_bmt)

        plan_write = self.compact.plan_write_code
        increment = self.counters.increment_fast
        c_access_run = self.compact_cache.access_run_raw
        o_access_run = self.counter_cache.access_run_raw

        compact_only = double = original_only = 0
        o_fetches = o_miss = c_miss = 0
        cp = op = -1  # leaf of each layer's pending run (-1: none)
        cp_count = op_count = 0

        def flush_compact() -> None:
            nonlocal cp, cp_count, c_miss
            line, mask = c_locate(cp)
            miss_mask, miss_count, evictions = c_access_run(
                line, mask, True, cp_count
            )
            if miss_mask:
                c_miss += miss_count
                if c_verify is not None:
                    c_verify(cp)
            if evictions:
                self._drain_compact_evictions(evictions)
            cp = -1
            cp_count = 0

        def flush_original() -> None:
            nonlocal op, op_count, o_fetches, o_miss
            line, mask = o_locate(op)
            miss_mask, miss_count, evictions = o_access_run(
                line, mask, True, op_count
            )
            if miss_mask:
                o_fetches += 1
                o_miss += miss_count
                if o_verify is not None:
                    o_verify(op)
            if evictions:
                self._drain_counter_evictions(evictions)
            op = -1
            op_count = 0

        for s, c_leaf, o_leaf in zip(sec_l, c_leaves_l, o_leaves_l):
            code = plan_write(s)
            route = code & 7
            if route != 2:
                if c_leaf == cp:
                    cp_count += 1
                else:
                    if cp >= 0:
                        flush_compact()
                    cp = c_leaf
                    cp_count = 1
                if route == 0:
                    compact_only += 1
                else:
                    double += 1
            else:
                original_only += 1
            if route != 0:
                affected = increment(s)
                if affected is not None:
                    self._reencrypt_group(affected)
                    self.compact.force_original(affected)
                if o_leaf == op:
                    op_count += 1
                else:
                    if op >= 0:
                        flush_original()
                    op = o_leaf
                    op_count = 1
            if code & 8:
                self.stats.compact_disable_events += 1
                if self.obs.enabled:
                    self.obs.profiler.event(
                        "compact.disable",
                        partition=self.partition_id,
                        block=self.compact.block_of(s),
                        sector=s,
                    )
                # The sync write-touches the original counter cache, so
                # the pending original run must land first (and the next
                # one starts fresh — the sync may evict its line).
                if op >= 0:
                    flush_original()
                self._sync_block_to_original(s)
        if cp >= 0:
            flush_compact()
        if op >= 0:
            flush_original()

        self.stats.compact_only_accesses += compact_only
        self.stats.compact_double_accesses += double
        self.stats.original_only_accesses += original_only
        if c_miss:
            self.traffic.record(
                Stream.COMPACT_COUNTER_READ,
                c_miss * c_layout.sector_bytes,
                transactions=c_miss,
            )
        if o_fetches:
            self.stats.counter_fetches += o_fetches
            self.traffic.record(
                Stream.COUNTER_READ,
                o_miss * o_layout.sector_bytes,
                transactions=o_miss,
            )

    def _fill_counters(self, sectors: np.ndarray) -> None:
        """Counter side of a fill run.

        ``plan_read`` is pure and nothing in a fill run mutates compact
        state, so all routes are decided up front.
        """
        if self.compact is None:
            self._batch_counter_reads(sectors)
            return
        n = int(sectors.size)
        codes = self.compact.plan_read_codes(sectors.tolist())
        if codes is None:
            self.stats.compact_only_accesses += n
            self._batch_compact_accesses(sectors, write=False)
            return
        codes_arr = np.asarray(codes, dtype=np.int8)
        n_original_only = int(np.count_nonzero(codes_arr == 2))
        n_double = int(np.count_nonzero(codes_arr == 1))
        self.stats.compact_only_accesses += n - n_original_only - n_double
        self.stats.compact_double_accesses += n_double
        self.stats.original_only_accesses += n_original_only
        compact_rows = codes_arr != 2
        if compact_rows.any():
            self._batch_compact_accesses(sectors[compact_rows], write=False)
        original_rows = codes_arr != 0
        if original_rows.any():
            self._batch_counter_reads(sectors[original_rows])

    def _fill_macs(self, sectors: np.ndarray, keys_list) -> None:
        """Value/MAC side of a fill run.

        The value cache checks the run's sectors in order
        (:meth:`ValueCache.fill_run`): every probe reshapes the cache the
        next sector sees. MAC fetches for the sectors it could not cover
        defer to one batched MAC phase.
        """
        if self.value_cache is None:
            self._batch_mac_reads(sectors)
            return
        if self._value_prof is None:
            mac_rows, verified, failures = self.value_cache.fill_run(
                keys_list
            )
        else:
            with self._value_prof.span("value_cache.fill"):
                mac_rows, verified, failures = self.value_cache.fill_run(
                    keys_list
                )
        self.stats.value_verified_fills += verified
        self.stats.mac_fetches_avoided += verified
        self.stats.value_check_failures += failures
        if mac_rows:
            self._batch_mac_reads(sectors[mac_rows])

    def _writeback_counters(self, sectors: np.ndarray) -> None:
        """Counter side of a writeback run."""
        if self.compact is None:
            self._batch_counter_writes(sectors)
        else:
            self._batch_mirror_writes(sectors)

    def _writeback_macs(self, sectors: np.ndarray, keys_list) -> None:
        """Value/MAC side of a writeback run.

        A write whose image the value cache can verify from pinned
        entries alone skips its MAC update (paper Fig. 11, write path).
        """
        if self.value_cache is None:
            self._batch_mac_writes(sectors)
            return
        if self._value_prof is None:
            mac_rows, avoided = self.value_cache.writeback_run(keys_list)
        else:
            with self._value_prof.span("value_cache.writeback"):
                mac_rows, avoided = self.value_cache.writeback_run(keys_list)
        self.stats.mac_writes_avoided += avoided
        if mac_rows:
            self._batch_mac_writes(sectors[mac_rows])

    def on_fill_batch(self, sector_indices, values) -> None:
        """Read misses: counter via mirror layer, then value-check or MAC."""
        sectors = self._checked(sector_indices)
        keys_list = self._batch_value_keys(values)
        self.stats.fills += int(sectors.size)
        self._fill_counters(sectors)
        self._fill_macs(sectors, keys_list)

    def on_writeback_batch(self, sector_indices, values) -> None:
        """Dirty evictions: counter bump via mirror layer; MAC if needed."""
        sectors = self._checked(sector_indices)
        keys_list = self._batch_value_keys(values)
        self.stats.writebacks += int(sectors.size)
        self._writeback_counters(sectors)
        self._writeback_macs(sectors, keys_list)

    def warm_counters_batch(self, sector_indices, passes: int = 1) -> None:
        """Vectorized two-layer warmup.

        Both layers apply per-sector totals in bulk unless a minor can
        overflow: its ``force_original`` redirects the later compact
        plans of its whole group, so only then does the exact pass-major
        interleaving replay. Compact saturation crossings are counted in
        bulk (:meth:`CompactCounterState.bulk_writes`).
        """
        if self.compact is None:
            super().warm_counters_batch(sector_indices, passes)
            return
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
            self.compact.bulk_writes(uniq_l, totals)
            return
        increment = self.counters.increment_fast
        plan_write = self.compact.plan_write_code
        force = self.compact.force_original
        sec_l = sectors.tolist()
        for _ in range(passes):
            for s in sec_l:
                affected = increment(s)
                plan_write(s)
                if affected is not None:
                    force(affected)

    def _state_summary(self) -> List:
        summary = super()._state_summary()
        if self.value_cache is not None:
            summary.append(self.value_cache.state_summary())
        if self.compact is not None:
            summary.append(self.compact.state_summary())
            summary.append(self.compact_cache.state_summary())
            summary.append(self.compact_bmt_cache.state_summary())
            summary.append(self.compact_bmt.root_verifications)
        return summary

    def finalize(self) -> None:
        """Drain dirty metadata in both layers at kernel end."""
        super().finalize()
        if self.compact is not None:
            self._drain_compact_evictions(self.compact_cache.flush())
            if self.tree_enabled:
                self.compact_bmt.flush()

    def obs_snapshot(self) -> Dict[str, int]:
        """Add value-cache and mirror-layer quantities to the shared set."""
        snap = super().obs_snapshot()
        snap.update(
            value_verified_fills=self.stats.value_verified_fills,
            value_check_failures=self.stats.value_check_failures,
            mac_fetches_avoided=self.stats.mac_fetches_avoided,
            mac_writes_avoided=self.stats.mac_writes_avoided,
            compact_only_accesses=self.stats.compact_only_accesses,
            compact_double_accesses=self.stats.compact_double_accesses,
            original_only_accesses=self.stats.original_only_accesses,
            compact_disable_events=self.stats.compact_disable_events,
        )
        self._snapshot_value_cache(snap)
        return snap

    def _snapshot_value_cache(self, snap: Dict[str, int]) -> None:
        if self.value_cache is not None:
            snap["value_probes"] = self.value_cache.stats.probes
            snap["value_hits"] = self.value_cache.stats.hits
            snap["value_pinned_hits"] = self.value_cache.stats.pinned_hits


class PlutusCounterSide(PlutusEngine):
    """One design point's counter side alone, with its tree on.

    Runs the counter phase of every hook and the full warmup; the value
    cache is off and no MAC is touched. Its result therefore carries the
    counter side's streams and ``EngineStats`` fields exactly as the
    whole engine would (:data:`~repro.secure.engine.VALUE_MAC_STREAMS`
    and :data:`~repro.secure.engine.VALUE_MAC_STATS` name the rest).
    :class:`~repro.harness.runner.ExperimentContext` replays it to share
    one counter side among design points.
    """

    def __init__(self, partition_id: int, data_sectors: int,
                 traffic: TrafficCounter, **counter_args) -> None:
        super().__init__(partition_id, data_sectors, traffic,
                         value_cache_config=None, **counter_args)

    def on_fill_batch(self, sector_indices, values) -> None:
        sectors = self._checked(sector_indices)
        self.stats.fills += int(sectors.size)
        self._fill_counters(sectors)

    def on_writeback_batch(self, sector_indices, values) -> None:
        sectors = self._checked(sector_indices)
        self.stats.writebacks += int(sectors.size)
        self._writeback_counters(sectors)


class PlutusValueMacSide(PlutusEngine):
    """One design point's value/MAC side alone: value cache and MACs.

    MAC locations depend only on the tag size, and the value cache only
    on the images, so this side reads nothing of the counter side's
    configuration. It builds only what it touches: the layout (for MAC
    locations and range checks), the MAC cache and the value cache; no
    counter store, counter cache or tree. Warmup advances counter state
    alone and does nothing here. The counterpart of
    :class:`PlutusCounterSide`.
    """

    def __init__(self, partition_id: int, data_sectors: int,
                 traffic: TrafficCounter, mac_tag_bytes: int,
                 cache_config: MetadataCacheConfig,
                 value_cache_config: Optional[ValueCacheConfig]) -> None:
        # Skips MetadataEngine's constructor, which builds the counter
        # side's structures.
        PartitionEngine.__init__(self, partition_id, data_sectors, traffic)
        self.layout = MetadataLayout(
            data_sectors=data_sectors, mac_tag_bytes=mac_tag_bytes
        )
        self.mac_cache = cache_config.build("mac")
        self._build_value_cache(value_cache_config)

    def on_fill_batch(self, sector_indices, values) -> None:
        sectors = self._checked(sector_indices)
        keys_list = self._batch_value_keys(values)
        self._fill_macs(sectors, keys_list)

    def on_writeback_batch(self, sector_indices, values) -> None:
        sectors = self._checked(sector_indices)
        keys_list = self._batch_value_keys(values)
        self._writeback_macs(sectors, keys_list)

    def warm_counters_batch(self, sector_indices, passes: int = 1) -> None:
        """Warmup moves counter state only, none of this side's."""

    def finalize(self) -> None:
        """Drain the dirty MAC lines."""
        self._drain_mac_evictions(self.mac_cache.flush())

    def _state_summary(self) -> List:
        summary = PartitionEngine._state_summary(self)
        summary.append(self.mac_cache.state_summary())
        if self.value_cache is not None:
            summary.append(self.value_cache.state_summary())
        return summary

    def obs_snapshot(self) -> Dict[str, int]:
        """The value/MAC side's ``EngineStats`` fields and value-cache
        counters."""
        snap = {name: getattr(self.stats, name)
                for name in sorted(VALUE_MAC_STATS)}
        self._snapshot_value_cache(snap)
        return snap
