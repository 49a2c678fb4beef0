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
from repro.mem.traffic import Stream, TrafficCounter
from repro.metadata.compact import (
    DESIGN_3BIT_ADAPTIVE,
    CompactCounterConfig,
    CompactCounterState,
)
from repro.metadata.layout import GranularityDesign, MetadataLayout
from repro.metadata.bmt import BmtTraversal
from repro.secure.engine import MetadataCacheConfig, MetadataEngine
from repro.secure.value_cache import ValueCache, ValueCacheConfig


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

        self.value_cache = (
            ValueCache(value_cache_config) if value_cache_config else None
        )

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
            self.compact_cache = cache_config.build(f"cctr[{partition_id}]")
            self.compact_bmt_cache = cache_config.build(f"cbmt[{partition_id}]")
            self.compact_bmt = BmtTraversal(
                self.compact_layout.bmt_geometry(),
                self.compact_bmt_cache,
                traffic,
                read_stream=Stream.COMPACT_BMT_READ,
                write_stream=Stream.COMPACT_BMT_WRITE,
                lazy_update=lazy_update,
            )

    # -- tree gating (Fig. 20) -------------------------------------------------

    def _verify_tree(self, traversal: BmtTraversal, leaf: int) -> None:
        if self.tree_enabled:
            traversal.verify_leaf(leaf)

    def _verify_counter_tree(self, leaf_index: int) -> None:
        """Original-tree walk for the shared run helpers, gated."""
        self._verify_tree(self.bmt, leaf_index)

    def _drain_counter_evictions(self, evictions) -> None:
        sector_bytes = self.counter_cache.config.sector_bytes
        for ev in evictions:
            self.traffic.record(
                Stream.COUNTER_WRITE,
                ev.dirty_sector_count * sector_bytes,
                transactions=ev.dirty_sector_count,
            )
            leaves = set()
            for s in range(self.counter_cache.config.sectors_per_line):
                if (ev.dirty_mask >> s) & 1:
                    counter_sector = ev.line_addr // sector_bytes + s
                    leaves.add(self._leaf_of_counter_sector(counter_sector))
            if self.tree_enabled:
                self.bmt.update_leaves(leaves)

    # -- compact-counter layer ---------------------------------------------------

    def _compact_leaf_of_sector(self, counter_sector: int) -> int:
        if self.compact_layout.design is GranularityDesign.BLOCK_128:
            per_line = self.compact_layout.line_bytes // self.compact_layout.sector_bytes
            return counter_sector // per_line
        return counter_sector

    def _drain_compact_evictions(self, evictions) -> None:
        sector_bytes = self.compact_cache.config.sector_bytes
        for ev in evictions:
            self.traffic.record(
                Stream.COMPACT_COUNTER_WRITE,
                ev.dirty_sector_count * sector_bytes,
                transactions=ev.dirty_sector_count,
            )
            leaves = set()
            for s in range(self.compact_cache.config.sectors_per_line):
                if (ev.dirty_mask >> s) & 1:
                    counter_sector = ev.line_addr // sector_bytes + s
                    leaves.add(self._compact_leaf_of_sector(counter_sector))
            if self.tree_enabled:
                self.compact_bmt.update_leaves(leaves)

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
                self._verify_tree(self.bmt, self.layout.bmt_leaf_index(data_sector))
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

    def _batch_value_keys(self, values, n: int):
        """Masked value-cache keys per event (None = no image).

        The fixed-width fast path reads the whole run's payload matrix
        as little-endian u32 words and masks all of them with one numpy
        AND — byte-identical to per-value ``split_values`` + ``_key``
        because both decode little-endian and the combined range+low
        mask is a single constant. Raises ValueError when a present
        image is not 32 bytes, before the hook changes any state.
        """
        vc = self.value_cache
        u32_matrix = getattr(values, "u32_matrix", None)
        if u32_matrix is not None:
            matrix = u32_matrix()
            if matrix is not None:
                # Fixed 32-byte payload column: lengths are valid by
                # construction.
                if vc is None:
                    return [None] * n
                cfg = vc.config
                shift_mask = ((1 << cfg.value_bits) - 1) & ~(
                    (1 << cfg.mask_bits) - 1
                )
                words, present = matrix
                keys = (words & np.uint32(shift_mask)).tolist()
                present_l = present.tolist()
                return [
                    keys[i] if present_l[i] else None for i in range(n)
                ]
        mask_keys = vc.mask_keys if vc is not None else None
        out: List = []
        append = out.append
        for image in values:
            if image is None:
                append(None)
            elif len(image) != 32:
                raise ValueError(
                    f"sector image must be 32 bytes, got {len(image)}"
                )
            elif mask_keys is None:
                append(None)  # valid image; keys unused without a cache
            else:
                append(mask_keys(split_values(image, 4)))
        return out

    def _batch_compact_accesses(self, sectors: np.ndarray, write: bool) -> None:
        """Compact-layer phase of a batched run (fetch + verify on miss)."""
        if sectors.size == 0:
            return
        layout = self.compact_layout
        lines, masks = layout.counter_locations(sectors)
        leaves = layout.bmt_leaf_indices(sectors)
        bounds = self._run_bounds(lines, masks)
        lines_l = lines.tolist()
        masks_l = masks.tolist()
        leaves_l = leaves.tolist()
        access_run = self.compact_cache.access_run_raw
        drain = self._drain_compact_evictions
        miss_sectors = 0
        for j in range(len(bounds) - 1):
            a = bounds[j]
            miss_mask, miss_count, evictions = access_run(
                lines_l[a], masks_l[a], write, bounds[j + 1] - a
            )
            if miss_mask:
                miss_sectors += miss_count
                self._verify_tree(self.compact_bmt, leaves_l[a])
            if evictions:
                drain(evictions)
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
        layer keeps one pending same-location run, flushed when the
        location changes or when a disable's synchronization is about to
        touch the original counter cache mid-run.
        """
        if sectors.size == 0:
            return
        o_lines, o_masks = self.layout.counter_locations(sectors)
        o_leaves = self.layout.bmt_leaf_indices(sectors)
        c_lines, c_masks = self.compact_layout.counter_locations(sectors)
        c_leaves = self.compact_layout.bmt_leaf_indices(sectors)
        sec_l = sectors.tolist()
        o_lines_l = o_lines.tolist()
        o_masks_l = o_masks.tolist()
        o_leaves_l = o_leaves.tolist()
        c_lines_l = c_lines.tolist()
        c_masks_l = c_masks.tolist()
        c_leaves_l = c_leaves.tolist()

        plan_write = self.compact.plan_write_code
        increment = self.counters.increment_fast
        c_access_run = self.compact_cache.access_run_raw
        o_access_run = self.counter_cache.access_run_raw

        compact_only = double = original_only = 0
        o_fetches = o_miss = c_miss = 0
        cp = op = -1  # start index of each layer's pending run
        cp_count = op_count = 0

        def flush_compact() -> None:
            nonlocal cp, cp_count, c_miss
            miss_mask, miss_count, evictions = c_access_run(
                c_lines_l[cp], c_masks_l[cp], True, cp_count
            )
            if miss_mask:
                c_miss += miss_count
                self._verify_tree(self.compact_bmt, c_leaves_l[cp])
            if evictions:
                self._drain_compact_evictions(evictions)
            cp = -1
            cp_count = 0

        def flush_original() -> None:
            nonlocal op, op_count, o_fetches, o_miss
            miss_mask, miss_count, evictions = o_access_run(
                o_lines_l[op], o_masks_l[op], True, op_count
            )
            if miss_mask:
                o_fetches += 1
                o_miss += miss_count
                self._verify_tree(self.bmt, o_leaves_l[op])
            if evictions:
                self._drain_counter_evictions(evictions)
            op = -1
            op_count = 0

        for i, s in enumerate(sec_l):
            code = plan_write(s)
            route = code & 7
            if route != 2:
                if (
                    cp >= 0
                    and c_lines_l[cp] == c_lines_l[i]
                    and c_masks_l[cp] == c_masks_l[i]
                ):
                    cp_count += 1
                else:
                    if cp >= 0:
                        flush_compact()
                    cp = i
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
                if (
                    op >= 0
                    and o_lines_l[op] == o_lines_l[i]
                    and o_masks_l[op] == o_masks_l[i]
                ):
                    op_count += 1
                else:
                    if op >= 0:
                        flush_original()
                    op = i
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
                c_miss * self.compact_layout.sector_bytes,
                transactions=c_miss,
            )
        if o_fetches:
            self.stats.counter_fetches += o_fetches
            self.traffic.record(
                Stream.COUNTER_READ,
                o_miss * self.layout.sector_bytes,
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

        Value checks go per event, in order: every probe reshapes the
        cache the next event sees. MAC fetches for the events the value
        cache could not cover defer to one batched MAC phase.
        """
        if self.value_cache is None:
            self._batch_mac_reads(sectors)
            return
        vc = self.value_cache
        mac_rows = np.zeros(int(sectors.size), dtype=bool)
        verified = failures = 0
        for i, keys in enumerate(keys_list):
            if keys is None:
                mac_rows[i] = True
                continue
            if vc.verify_keys(keys):
                verified += 1
            else:
                failures += 1
                mac_rows[i] = True
            vc.observe_keys(keys)
        self.stats.value_verified_fills += verified
        self.stats.mac_fetches_avoided += verified
        self.stats.value_check_failures += failures
        if mac_rows.any():
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
        vc = self.value_cache
        mac_rows = np.zeros(int(sectors.size), dtype=bool)
        avoided = 0
        for i, keys in enumerate(keys_list):
            if keys is None:
                mac_rows[i] = True
                continue
            vc.observe_keys(keys)
            if vc.write_verifiable_keys(keys):
                avoided += 1
            else:
                mac_rows[i] = True
        self.stats.mac_writes_avoided += avoided
        if mac_rows.any():
            self._batch_mac_writes(sectors[mac_rows])

    def on_fill_batch(self, sector_indices, values) -> None:
        """Read misses: counter via mirror layer, then value-check or MAC."""
        sectors = self._checked(sector_indices)
        keys_list = self._batch_value_keys(values, int(sectors.size))
        self.stats.fills += int(sectors.size)
        self._fill_counters(sectors)
        self._fill_macs(sectors, keys_list)

    def on_writeback_batch(self, sector_indices, values) -> None:
        """Dirty evictions: counter bump via mirror layer; MAC if needed."""
        sectors = self._checked(sector_indices)
        keys_list = self._batch_value_keys(values, int(sectors.size))
        self.stats.writebacks += int(sectors.size)
        self._writeback_counters(sectors)
        self._writeback_macs(sectors, keys_list)

    def warm_counters_batch(self, sector_indices, passes: int = 1) -> None:
        """Vectorized two-layer warmup.

        Bulk application needs *both* layers order-free: no minor
        overflow (whose force_original would redirect later compact
        plans) and no compact saturation crossing. Otherwise the exact
        pass-major interleaving replays.
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
        if self.counters.bulk_increment_safe(
            uniq_l, totals
        ) and self.compact.bulk_writes_safe(uniq_l, totals):
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
        if self.value_cache is not None:
            snap["value_probes"] = self.value_cache.stats.probes
            snap["value_hits"] = self.value_cache.stats.hits
            snap["value_pinned_hits"] = self.value_cache.stats.pinned_hits
        return snap


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
    configuration. Warmup advances counter state alone and does nothing
    here. The counterpart of :class:`PlutusCounterSide`.
    """

    def __init__(self, partition_id: int, data_sectors: int,
                 traffic: TrafficCounter, mac_tag_bytes: int,
                 cache_config: MetadataCacheConfig,
                 value_cache_config: Optional[ValueCacheConfig]) -> None:
        super().__init__(partition_id, data_sectors, traffic,
                         mac_tag_bytes=mac_tag_bytes,
                         cache_config=cache_config,
                         value_cache_config=value_cache_config,
                         compact_config=None)

    def on_fill_batch(self, sector_indices, values) -> None:
        sectors = self._checked(sector_indices)
        keys_list = self._batch_value_keys(values, int(sectors.size))
        self._fill_macs(sectors, keys_list)

    def on_writeback_batch(self, sector_indices, values) -> None:
        sectors = self._checked(sector_indices)
        keys_list = self._batch_value_keys(values, int(sectors.size))
        self._writeback_macs(sectors, keys_list)

    def warm_counters_batch(self, sector_indices, passes: int = 1) -> None:
        """Warmup moves counter state only, none of this side's."""
