"""PSSM baseline engine (Yuan et al. [36]), the paper's comparison point.

Partitioned, sectored security metadata with counter-mode encryption:
every L2 read miss fetches and verifies the sector's split counter
(BMT-protected) and its MAC; every dirty writeback advances the counter,
recomputes the MAC, and lazily maintains the tree. Metadata blocks are
128 bytes — the coarse granularity whose over-fetch Plutus attacks.

The paper upgrades PSSM's 4-byte MACs to 8 bytes for a fair security
level ("8B-MAC-PSSM"); that is the default here, with ``mac_tag_bytes``
exposed for the 4-byte variant.
"""

from __future__ import annotations

from repro.mem.traffic import TrafficCounter
from repro.metadata.layout import GranularityDesign
from repro.secure.engine import MetadataCacheConfig, MetadataEngine


class PssmEngine(MetadataEngine):
    """The state-of-the-art sectored-metadata baseline."""

    name = "pssm"

    def __init__(
        self,
        partition_id: int,
        data_sectors: int,
        traffic: TrafficCounter,
        mac_tag_bytes: int = 8,
        design: GranularityDesign = GranularityDesign.BLOCK_128,
        cache_config: MetadataCacheConfig = MetadataCacheConfig(),
        lazy_update: bool = True,
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

    # PSSM touches two disjoint metadata structures per event, so a run
    # splits into a counter phase and a MAC phase; each phase is the
    # shared vectorized replay from MetadataEngine. Values never matter
    # to this design, so the lazy value columns stay unmaterialized.

    def on_fill_batch(self, sector_indices, values) -> None:
        """Read misses: verified counter for the decrypt pad, MAC check."""
        sectors = self._checked(sector_indices)
        self.stats.fills += int(sectors.size)
        self._batch_counter_reads(sectors)
        self._batch_mac_reads(sectors)

    def on_writeback_batch(self, sector_indices, values) -> None:
        """Dirty evictions: counter bump, fresh MAC, lazy tree update."""
        sectors = self._checked(sector_indices)
        self.stats.writebacks += int(sectors.size)
        self._batch_counter_writes(sectors)
        self._batch_mac_writes(sectors)
