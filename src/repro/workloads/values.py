"""Synthetic value models and the value-reuse study (paper Section III-B).

GPU kernels exhibit strong *value locality*: zero-initialized buffers,
repeated graph weights, saturated activations, near-identical floats.
:class:`ValueModel` synthesizes 32-byte sector images with controllable
locality so that workload profiles can be calibrated against the
paper's measured reuse levels (Fig. 9). :class:`ValueReuseStudy`
re-implements the paper's three measurement scenarios over any trace,
which is both the Fig. 9 reproduction and the calibration instrument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.common.bitops import split_values
from repro.common.errors import ConfigurationError
from repro.common.rng import RngStream
from repro.secure.value_cache import ValueCache, ValueCacheConfig

#: Values over-represented in real GPU memory regardless of workload.
_UBIQUITOUS_VALUES = np.array(
    [0x00000000, 0xFFFFFFFF, 0x00000001, 0x3F800000,  # 0, -1, 1, 1.0f
     0xBF800000, 0x7F800000, 0x00000010, 0x80000000],
    dtype=np.uint32,
)


@dataclass(frozen=True)
class ValueModelConfig:
    """Locality knobs of a benchmark's data values."""

    #: Probability a generated sector is drawn from the hot value pool
    #: (whole-sector reuse, the dominant real-world mode).
    sector_reuse: float = 0.5
    #: Probability an individual value inside a non-reused sector still
    #: comes from the pool (partial reuse).
    value_reuse: float = 0.2
    #: Probability a pooled value is perturbed in its 4 masked LSBs
    #: (near-value locality the masked scenario captures).
    near_perturb: float = 0.3
    #: Distinct hot values in the workload (pool size).
    pool_size: int = 192
    #: Zipf skew of pool usage (higher = few values dominate).
    zipf_a: float = 1.2

    def __post_init__(self) -> None:
        for name in ("sector_reuse", "value_reuse", "near_perturb"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name}={p} outside [0, 1]")
        if self.pool_size < len(_UBIQUITOUS_VALUES):
            raise ConfigurationError("pool too small for ubiquitous values")


class ValueModel:
    """Batch generator of sector images with calibrated value locality."""

    VALUES_PER_SECTOR = 8

    def __init__(self, config: ValueModelConfig, rng: RngStream) -> None:
        self.config = config
        self._rng = rng.child("values")
        pool = self._rng.integers(
            0, 1 << 32, size=config.pool_size
        ).astype(np.uint32)
        pool[: len(_UBIQUITOUS_VALUES)] = _UBIQUITOUS_VALUES
        self._pool = pool

    def sector_images(
        self, count: int, group_sizes: "Optional[Sequence[int]]" = None
    ) -> List[bytes]:
        """Generate *count* 32-byte images in one vectorized batch.

        ``group_sizes`` optionally partitions the images into coalesced
        accesses whose sectors share one reuse decision. Real value
        locality is spatially clustered — a zeroed or constant cache
        line repeats across *all* of its sectors — and that clustering
        is what lets a whole MAC sector's worth of fills be skipped.
        Without grouping, each sector draws independently.
        """
        if count <= 0:
            return []
        if group_sizes is not None and sum(group_sizes) != count:
            raise ConfigurationError("group sizes must sum to sector count")
        cfg = self.config
        n_values = count * self.VALUES_PER_SECTOR

        pool_idx = self._rng.zipf_bounded(cfg.zipf_a, cfg.pool_size, n_values)
        pooled = self._pool[pool_idx].copy()
        perturb = self._rng.random(n_values) < cfg.near_perturb
        deltas = self._rng.integers(0, 16, size=n_values).astype(np.uint32)
        pooled[perturb] = (pooled[perturb] & np.uint32(0xFFFFFFF0)) | (
            deltas[perturb] & np.uint32(0xF)
        )

        fresh = self._rng.integers(0, 1 << 32, size=n_values).astype(np.uint32)

        if group_sizes is None:
            sector_reused = self._rng.random(count) < cfg.sector_reuse
        else:
            group_reused = self._rng.random(len(group_sizes)) < cfg.sector_reuse
            sector_reused = np.repeat(group_reused, list(group_sizes))
        sector_is_reused = np.repeat(sector_reused, self.VALUES_PER_SECTOR)
        value_is_reused = self._rng.random(n_values) < cfg.value_reuse
        take_pool = sector_is_reused | value_is_reused
        values = np.where(take_pool, pooled, fresh).astype("<u4")

        flat = values.tobytes()
        return [flat[i * 32 : (i + 1) * 32] for i in range(count)]

    def sector_image(self) -> bytes:
        """Generate a single image (convenience for tests)."""
        return self.sector_images(1)[0]


class ValueReuseStudy:
    """Paper Fig. 8/9: three ways of counting sector-level value reuse.

    A 2 kB study cache (512 x 32-bit values, the paper's per-partition
    analysis configuration) observes every accessed sector. A sector
    counts as *reused* under:

    * ``full`` — all eight 32-bit values hit;
    * ``halves`` — each 16-byte half has >= 3 of its 4 values hit;
    * ``masked`` — as ``halves`` with the 4 LSBs of every value masked.

    ``full`` and ``halves`` score the same unmasked cache. The study
    caches have no pinned region, so a probe can neither insert, evict
    nor pin, and ``observe_many`` then moves all eight keys of the
    sector to the MRU end in order: a second unmasked cache probed by
    the ``halves`` rule would hold the same keys in the same order.
    """

    SCENARIOS = ("full", "halves", "masked")

    def __init__(self, cache_entries: int = 512) -> None:
        def make_cache(mask_bits: int) -> ValueCache:
            return ValueCache(
                ValueCacheConfig(
                    entries=cache_entries,
                    mask_bits=mask_bits,
                    pinned_fraction=0.0,
                    hits_required=3,
                )
            )

        self._exact = make_cache(0)
        self._masked = make_cache(4)
        self.sectors_seen = 0
        self.reused: Dict[str, int] = {s: 0 for s in self.SCENARIOS}

    def observe_sector(self, image: bytes, is_read: bool = True) -> None:
        """Process one sector access exactly as the paper's study does:
        reads are checked for reuse before insertion; all accesses insert."""
        values = split_values(image, 4)
        if is_read:
            self.sectors_seen += 1
            probe = self._exact.probe
            hits = [probe(v)[0] for v in values]
            if all(hits):
                self.reused["full"] += 1
            if sum(hits[:4]) >= 3 and sum(hits[4:]) >= 3:
                self.reused["halves"] += 1
            probe = self._masked.probe
            if (
                sum(probe(v)[0] for v in values[:4]) >= 3
                and sum(probe(v)[0] for v in values[4:]) >= 3
            ):
                self.reused["masked"] += 1
        self._exact.observe_many(values)
        self._masked.observe_many(values)

    def reuse_fraction(self, scenario: str) -> float:
        if scenario not in self.reused:
            raise KeyError(f"unknown scenario {scenario!r}")
        if self.sectors_seen == 0:
            return 0.0
        return self.reused[scenario] / self.sectors_seen

    def report(self) -> Dict[str, float]:
        return {s: self.reuse_fraction(s) for s in self.SCENARIOS}


def study_trace_values(trace, cache_entries: int = 512) -> Dict[str, float]:
    """Run the three-scenario reuse study over a trace's sector images."""
    study = ValueReuseStudy(cache_entries=cache_entries)
    for access in trace:
        if access.values is None:
            continue
        for _slot, image in access.values:
            study.observe_sector(image, is_read=not access.write)
    return study.report()
