"""Common-counters comparator (Na et al. [18]) layered on PSSM.

The strongest prior counter optimization the paper compares against in
Fig. 18: GPU data is overwhelmingly read-only or uniformly updated, so a
small on-chip structure can serve the counters of untouched regions
without any memory traffic (value zero, no BMT walk needed — the
freshness of a counter that provably never left its initial state needs
no tree check).

Faithful to the prior work's coarse tracking — and to this paper's
critique of it (Section III-C) — regions are 16 KiB and are demoted
*permanently on the first write*: "on the first write received by this
region, the whole region is no more considered read-only, and all new
accesses have to get the original counters from memory". Scattered
writes therefore poison large regions, which is exactly the missed
opportunity Plutus's fine-grained compact counters recover. MAC traffic
is untouched by this design.
"""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from repro.mem.traffic import TrafficCounter
from repro.metadata.layout import GranularityDesign
from repro.secure.engine import MetadataCacheConfig, MetadataEngine


class CommonCountersEngine(MetadataEngine):
    """PSSM plus an on-chip common-counter region tracker."""

    name = "common-counters+pssm"

    #: Region tracking granularity of the prior work (16 KiB of data).
    REGION_BYTES = 16 * 1024

    def __init__(
        self,
        partition_id: int,
        data_sectors: int,
        traffic: TrafficCounter,
        mac_tag_bytes: int = 8,
        design: GranularityDesign = GranularityDesign.BLOCK_128,
        cache_config: MetadataCacheConfig = MetadataCacheConfig(),
        lazy_update: bool = True,
        init_written_fraction: float = 0.5,
    ) -> None:
        super().__init__(
            partition_id,
            data_sectors,
            traffic,
            design=design,
            mac_tag_bytes=mac_tag_bytes,
            cache_config=cache_config,
            lazy_update=lazy_update,
        )
        if not 0.0 <= init_written_fraction <= 1.0:
            raise ValueError("init_written_fraction must be within [0, 1]")
        self.region_sectors = self.REGION_BYTES // self.layout.sector_bytes
        #: Regions that have received at least one write (demoted forever).
        self._written_regions: Set[int] = set()
        #: Applications initialize their device buffers (memset/copy-in/
        #: init kernels) before the measured kernels run; those writes
        #: demote regions under the first-write rule just as surely as
        #: kernel writes do. This fraction of regions starts demoted,
        #: chosen deterministically by region id.
        self.init_written_fraction = init_written_fraction

    def counter_is_common(self, sector_index: int) -> bool:
        """True while the sector's region has never been written."""
        common = self._common_mask(
            np.array([sector_index // self.region_sectors], dtype=np.int64)
        )
        return common is not None and bool(common[0])

    # The common-region test is a pure function of the written-region
    # set, which only writebacks and warmup mutate — so within a fill
    # run every event sees the same set and the test vectorizes over
    # the unique regions. Within a writeback run no event reads the
    # set, so the region demotions hoist to one bulk update.

    def _common_mask(self, regions: np.ndarray) -> Optional[np.ndarray]:
        """Per-event common-counter verdicts, or None when none can be."""
        if self.init_written_fraction >= 1.0:
            return None  # every region starts demoted
        uniq, inverse = np.unique(regions, return_inverse=True)
        h = (uniq * np.int64(2654435761)
             + np.int64(self.partition_id * 97)) & np.int64(0xFFFFFFFF)
        init_written = (h / float(2**32)) < self.init_written_fraction
        written = self._written_regions
        never_written = np.fromiter(
            (r not in written for r in uniq.tolist()),
            dtype=bool,
            count=int(uniq.size),
        )
        return (never_written & ~init_written)[inverse]

    def on_fill_batch(self, sector_indices, values) -> None:
        """Read misses: counter on-chip if the region is pristine; MAC always."""
        sectors = self._checked(sector_indices)
        n = int(sectors.size)
        self.stats.fills += n
        common = (
            self._common_mask(sectors // self.region_sectors) if n else None
        )
        if common is None:
            self._batch_counter_reads(sectors)
        else:
            n_common = int(common.sum())
            self.stats.counter_onchip_hits += n_common
            if n_common < n:
                self._batch_counter_reads(sectors[~common])
        self._batch_mac_reads(sectors)

    def on_writeback_batch(self, sector_indices, values) -> None:
        """Dirty evictions: demote the regions, then the full PSSM path."""
        sectors = self._checked(sector_indices)
        self.stats.writebacks += int(sectors.size)
        self._written_regions.update((sectors // self.region_sectors).tolist())
        self._batch_counter_writes(sectors)
        self._batch_mac_writes(sectors)

    def warm_counters_batch(self, sector_indices, passes: int = 1) -> None:
        """Pre-window writes: advance the counters and demote the regions."""
        if passes <= 0:
            return
        sectors = self._checked(sector_indices)
        super().warm_counters_batch(sectors, passes)
        self._written_regions.update((sectors // self.region_sectors).tolist())

    def _state_summary(self) -> List:
        summary = super()._state_summary()
        summary.append(sorted(self._written_regions))
        return summary
