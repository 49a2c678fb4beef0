"""Synthetic value models and the value-reuse study (paper Section III-B).

GPU kernels exhibit strong *value locality*: zero-initialized buffers,
repeated graph weights, saturated activations, near-identical floats.
:class:`ValueModel` synthesizes 32-byte sector images with controllable
locality so that workload profiles can be calibrated against the
paper's measured reuse levels (Fig. 9), as one ``(sectors, 8)``
little-endian uint32 matrix: the image matrix a
:class:`~repro.workloads.trace.Trace` holds. :class:`ValueReuseStudy`
re-implements the paper's three measurement scenarios over any trace,
which is both the Fig. 9 reproduction and the calibration instrument.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.common.bitops import split_values
from repro.common.errors import ConfigurationError
from repro.common.rng import RngStream
from repro.workloads.trace import SECTOR_COUNTS, Trace

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
#: A read sector's hit bits (one per value, the first value highest)
#: -> whether each 16-byte half has at least 3 of its 4 values hit.
_HALVES_REUSED = [
    bin(bits >> 4).count("1") >= 3 and bin(bits & 15).count("1") >= 3
    for bits in range(256)
]


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
    ) -> np.ndarray:
        """Generate *count* 32-byte images in one vectorized batch, as a
        ``(count, 8)`` little-endian uint32 matrix, one image per row.

        ``group_sizes`` optionally partitions the images into coalesced
        accesses whose sectors share one reuse decision. Real value
        locality is spatially clustered — a zeroed or constant cache
        line repeats across *all* of its sectors — and that clustering
        is what lets a whole MAC sector's worth of fills be skipped.
        Without grouping, each sector draws independently.
        """
        if count <= 0:
            return np.empty((0, self.VALUES_PER_SECTOR), dtype="<u4")
        if group_sizes is not None:
            group_sizes = np.asarray(group_sizes)
            if group_sizes.sum() != count:
                raise ConfigurationError(
                    "group sizes must sum to sector count"
                )
        cfg = self.config
        n_values = count * self.VALUES_PER_SECTOR

        # Each n_values-long temporary is dropped once used, so fewer of
        # them are alive at once. Fancy indexing already copies the pool.
        pooled = self._pool[
            self._rng.zipf_bounded(cfg.zipf_a, cfg.pool_size, n_values)
        ]
        perturb = self._rng.random(n_values) < cfg.near_perturb
        deltas = self._rng.integers(0, 16, size=n_values).astype(np.uint32)
        pooled[perturb] = (pooled[perturb] & np.uint32(0xFFFFFFF0)) | (
            deltas[perturb] & np.uint32(0xF)
        )
        del perturb, deltas

        fresh = self._rng.integers(0, 1 << 32, size=n_values).astype(np.uint32)

        if group_sizes is None:
            sector_reused = self._rng.random(count) < cfg.sector_reuse
        else:
            group_reused = self._rng.random(len(group_sizes)) < cfg.sector_reuse
            sector_reused = np.repeat(group_reused, group_sizes)
        take_pool = np.repeat(sector_reused, self.VALUES_PER_SECTOR)
        take_pool |= self._rng.random(n_values) < cfg.value_reuse
        return np.where(take_pool, pooled, fresh).astype(
            "<u4", copy=False
        ).reshape(count, self.VALUES_PER_SECTOR)


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

    Each resident key maps to a stamp: the number of the sector that
    inserted it, counting every sector, read or written. One lookup per
    key then decides both the hit and the update. A key present with an
    earlier sector's stamp was resident before this sector and hits; a
    key absent, or present with this sector's own stamp (inserted by an
    earlier value of the same sector), misses. A present key moves to
    the MRU end and keeps its stamp; an absent one is inserted with this
    sector's. Nothing is evicted inside a sector: each set is trimmed to
    capacity once per sector, which leaves what evicting per insert
    would.
    """

    SCENARIOS = ("full", "halves", "masked")

    def __init__(self, cache_entries: int = 512) -> None:
        if cache_entries <= 0:
            raise ConfigurationError("value-reuse study needs cache entries")
        self._capacity = cache_entries
        self._exact: "OrderedDict[int, int]" = OrderedDict()
        self._masked: "OrderedDict[int, int]" = OrderedDict()
        #: Sectors observed so far, reads and writes: the next stamp - 1.
        self._stamp = 0
        self.sectors_seen = 0
        self.reused: Dict[str, int] = {s: 0 for s in self.SCENARIOS}

    def observe_sector(self, image: bytes, is_read: bool = True) -> None:
        """Process one sector access exactly as the paper's study does:
        reads are checked for reuse before insertion; all accesses insert."""
        values = split_values(image, 4)
        self.observe_chunk(
            [values], [[v & _MASK_4_LSBS for v in values]], [is_read]
        )

    def observe_chunk(self, exact_rows: Sequence[Sequence[int]],
                      masked_rows: Sequence[Sequence[int]],
                      reads: Sequence[bool]) -> None:
        """:meth:`observe_sector` for consecutive sectors, given by their
        eight 32-bit values, the values' masked keys and whether each
        sector is a read."""
        exact, masked = self._exact, self._masked
        exact_get, exact_move = exact.get, exact.move_to_end
        masked_get, masked_move = masked.get, masked.move_to_end
        exact_pop, masked_pop = exact.popitem, masked.popitem
        capacity = self._capacity
        halves_reused = _HALVES_REUSED
        stamp = self._stamp
        seen = full = halves = near = 0  # near: the ``masked`` scenario
        for exact_keys, masked_keys, is_read in zip(exact_rows, masked_rows,
                                                    reads):
            stamp += 1
            hits = 0
            for key in exact_keys:
                inserted = exact_get(key)
                hits <<= 1
                if inserted is None:
                    exact[key] = stamp
                else:
                    exact_move(key)
                    if inserted != stamp:
                        hits += 1
            masked_hits = 0
            for key in masked_keys:
                inserted = masked_get(key)
                masked_hits <<= 1
                if inserted is None:
                    masked[key] = stamp
                else:
                    masked_move(key)
                    if inserted != stamp:
                        masked_hits += 1
            if is_read:
                seen += 1
                if hits == 255:  # all eight values hit
                    full += 1
                if halves_reused[hits]:
                    halves += 1
                if halves_reused[masked_hits]:
                    near += 1
            while len(exact) > capacity:
                exact_pop(last=False)
            while len(masked) > capacity:
                masked_pop(last=False)
        self._stamp = stamp
        self.sectors_seen += seen
        reused = self.reused
        reused["full"] += full
        reused["halves"] += halves
        reused["masked"] += near

    def reuse_fraction(self, scenario: str) -> float:
        if scenario not in self.reused:
            raise KeyError(f"unknown scenario {scenario!r}")
        if self.sectors_seen == 0:
            return 0.0
        return self.reused[scenario] / self.sectors_seen

    def report(self) -> Dict[str, float]:
        return {s: self.reuse_fraction(s) for s in self.SCENARIOS}


def study_trace_values(trace: Trace,
                       cache_entries: int = 512) -> Dict[str, float]:
    """Run the three-scenario reuse study over a trace's sector images.

    Reads the trace's image matrix chunk by chunk, in trace order,
    skipping the rows that carry no image.
    """
    study = ValueReuseStudy(cache_entries=cache_entries)
    if trace.images is not None:
        reads = np.repeat(~trace.writes, SECTOR_COUNTS[trace.sector_masks])
        images = trace.images
        if not trace.present.all():  # a mask copies the whole matrix
            images = images[trace.present]
            reads = reads[trace.present]
        for start in range(0, len(images), _CHUNK_SECTORS):
            keys = images[start:start + _CHUNK_SECTORS]
            study.observe_chunk(
                keys.tolist(), (keys & np.uint32(_MASK_4_LSBS)).tolist(),
                reads[start:start + _CHUNK_SECTORS].tolist(),
            )
    return study.report()
