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

from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.common.bitops import split_values
from repro.common.errors import ConfigurationError
from repro.common.rng import RngStream

#: Values over-represented in real GPU memory regardless of workload.
_UBIQUITOUS_VALUES = np.array(
    [0x00000000, 0xFFFFFFFF, 0x00000001, 0x3F800000,  # 0, -1, 1, 1.0f
     0xBF800000, 0x7F800000, 0x00000010, 0x80000000],
    dtype=np.uint32,
)

#: Clears a 32-bit value's 4 LSBs: the ``masked`` scenario's key.
_MASK_4_LSBS = 0xFFFFFFF0
#: Sectors per numpy decode; a whole trace's keys at once cost megabytes.
_CHUNK_SECTORS = 64


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


class ValueReuseStudy:
    """Paper Fig. 8/9: three ways of counting sector-level value reuse.

    A 2 kB study cache (512 x 32-bit values, the paper's per-partition
    analysis configuration) observes every accessed sector. A sector
    counts as *reused* under:

    * ``full`` — all eight 32-bit values hit;
    * ``halves`` — each 16-byte half has >= 3 of its 4 values hit;
    * ``masked`` — as ``halves`` with the 4 LSBs of every value masked.

    The study cache has no pinned region, and a probe only touches keys
    that the sector's observe touches again right after. So a hit is
    membership before the sector, in plain LRU over the observe stream:
    one ordered set of exact keys (``full`` and ``halves``) and one of
    masked keys, checked against ``ValueCache`` in the tests.
    """

    SCENARIOS = ("full", "halves", "masked")

    def __init__(self, cache_entries: int = 512) -> None:
        if cache_entries <= 0:
            raise ConfigurationError("value-reuse study needs cache entries")
        self._capacity = cache_entries
        self._exact: "OrderedDict[int, None]" = OrderedDict()
        self._masked: "OrderedDict[int, None]" = OrderedDict()
        self.sectors_seen = 0
        self.reused: Dict[str, int] = {s: 0 for s in self.SCENARIOS}

    def observe_sector(self, image: bytes, is_read: bool = True) -> None:
        """Process one sector access exactly as the paper's study does:
        reads are checked for reuse before insertion; all accesses insert."""
        values = split_values(image, 4)
        self.observe_sector_keys(
            values, [v & _MASK_4_LSBS for v in values], is_read
        )

    def observe_sector_keys(self, exact: Sequence[int],
                            masked: Sequence[int],
                            is_read: bool = True) -> None:
        """:meth:`observe_sector` by the sector's eight 32-bit values and
        their masked keys."""
        if is_read:
            self.sectors_seen += 1
            r = self._exact
            a, b, c, d, e, f, g, h = exact
            low = (a in r) + (b in r) + (c in r) + (d in r)
            high = (e in r) + (f in r) + (g in r) + (h in r)
            if low == high == 4:
                self.reused["full"] += 1
            if low >= 3 and high >= 3:
                self.reused["halves"] += 1
            r = self._masked
            a, b, c, d, e, f, g, h = masked
            if ((a in r) + (b in r) + (c in r) + (d in r) >= 3
                    and (e in r) + (f in r) + (g in r) + (h in r) >= 3):
                self.reused["masked"] += 1
        for lru, keys in ((self._exact, exact), (self._masked, masked)):
            for key in keys:
                if key in lru:
                    lru.move_to_end(key)
                else:
                    lru[key] = None
            # Trimming once per sector leaves what evicting per insert would.
            while len(lru) > self._capacity:
                lru.popitem(last=False)

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
    sectors = ((image, not access.write) for access in trace
               if access.values is not None for _slot, image in access.values)
    while chunk := list(islice(sectors, _CHUNK_SECTORS)):
        images, reads = zip(*chunk)
        keys = np.frombuffer(b"".join(images), dtype="<u4").reshape(-1, 8)
        masked = (keys & np.uint32(_MASK_4_LSBS)).tolist()
        for exact, masked_keys, is_read in zip(keys.tolist(), masked, reads):
            study.observe_sector_keys(exact, masked_keys, is_read)
    return study.report()
