"""Synthetic value models and the value-reuse study (paper Section III-B).

GPU kernels exhibit strong *value locality*: zero-initialized buffers,
repeated graph weights, saturated activations, near-identical floats.
:class:`ValueModel` synthesizes 32-byte sector images with controllable
locality so that workload profiles can be calibrated against the
paper's measured reuse levels (Fig. 9), as one ``(sectors, 8)``
little-endian uint32 matrix: the image matrix a
:class:`~repro.workloads.trace.Trace` holds. :func:`study_trace_values`
runs the paper's three measurement scenarios over any trace, which is
both the Fig. 9 reproduction and the calibration instrument. It scores
each value's LRU membership from reuse positions (its key's stack
distance, after Mattson et al.): a sort per window of sectors decides
most values, and a short loop the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

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
#: Sectors per window of the study: one sort of each key set per window,
#: where a whole trace's keys at once would cost megabytes. The sort
#: packs a key and its index in the window into 64 bits, which holds any
#: window under 2**29 sectors.
_WINDOW_SECTORS = 512


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


def _lru_hits(keys: np.ndarray, resident: np.ndarray,
              capacity: int) -> Tuple[np.ndarray, np.ndarray]:
    """Which keys of consecutive sectors an LRU set holds before their
    sector, and the set after the last sector.

    *keys* is a ``(sectors, 8)`` uint32 matrix, one sector per row, and
    *resident* the set's keys before the first row, least recent first.
    Each row's keys enter at the MRU end in order, then the set is
    trimmed to *capacity*. Returns the ``(sectors, 8)`` hit matrix and
    the resident keys after the last row, least recent first.

    Positions number the resident keys by recency, then the rows' keys.
    One sort by key, then position, gives each key its previous position
    q before its row, which starts at position t. A key repeated within
    its row shares the outcome of its first copy, which is:

    * a miss without q (never seen, or evicted before these rows);
    * a hit if ``t - q <= capacity``: fewer than *capacity* other keys
      fit between q and t;
    * a miss if *capacity* keys between q and t never come back: all of
      them are more recent than q at t;
    * undecided otherwise.

    A resident key sits at its last position so far, and the trims evict
    such positions in position order. By the start of row s they have
    evicted ``max(0, distinct keys before s - capacity)`` positions,
    plus one per miss of a key seen before. A loop over the rows with
    undecided keys moves an eviction pointer that far. It passes the
    positions evicted whenever reached (keys that never come back, and
    the q of a certain miss) in bulk, and the q of an undecided key one
    at a time: evicted if its key has not come back yet, else skipped.
    An undecided key hits unless its q was evicted. No other position is
    evicted: a key's earlier copies in a row are not its last position,
    and a q that is a certain hit stays resident until its key returns.
    """
    sectors, m = len(keys), len(resident)
    flat = np.concatenate((resident, keys.ravel()))
    # The key in the high half; in the low half 0 for a resident key (one
    # per key, before its rows' copies), else 1 + the key's index in rows.
    tagged = flat.astype(np.uint64) << np.uint64(32)
    tagged[m:] |= np.arange(1, keys.size + 1, dtype=np.uint64)
    tagged.sort()
    key = tagged >> np.uint64(32)
    seen = np.zeros(len(flat), dtype=bool)  # the key came before
    seen[1:] = key[1:] == key[:-1]
    # Each temporary goes once used: the study runs after every trace is
    # built, so what it holds at once adds to the process's peak.
    del key
    tag = (tagged & np.uint64(0xFFFFFFFF)).astype(np.int64)
    del tagged
    pos = tag + (m - 1)
    pos[tag == 0] = np.argsort(resident)  # resident keys in key order
    sector = (tag + 7) >> 3  # 0: the resident keys; row r: r + 1
    del tag

    returning = seen.copy()  # ...before this key's row
    returning[1:] &= sector[1:] != sector[:-1]
    gap = np.zeros(len(flat), dtype=np.int64)  # t - q
    gap[1:] = 8 * sector[1:] + (m - 8) - pos[:-1]
    hit = returning & (gap <= capacity)
    far = np.flatnonzero(returning & (gap > capacity))
    del gap
    back = sector[far]  # the row each far key comes back in
    prev = pos[far - 1]  # its q

    last = np.ones(len(flat), dtype=bool)  # the key's last position
    last[:-1] = ~seen[1:]
    always = np.zeros(len(flat), dtype=bool)  # evicted whenever reached
    always[pos[last]] = True  # keys that never come back
    never_back = np.cumsum(always)  # ...up to each position
    gone = never_back[8 * back + (m - 9)] - never_back[prev] >= capacity
    del never_back
    always[prev[gone]] = True  # and the q of a certain miss
    evictable = np.flatnonzero(always)
    new_keys = np.bincount(sector[~seen], minlength=sectors + 2)
    again = np.bincount(back[gone], minlength=sectors + 2)
    # Evictions before row s without the undecided keys' misses.
    base = (np.maximum(np.cumsum(new_keys) - new_keys - capacity, 0)
            + np.cumsum(again) - again).tolist()

    undecided = far[~gone]
    back, prev = back[~gone], prev[~gone]
    by_prev = np.argsort(prev)
    # Per undecided q, in position order: the evictable positions before
    # it (then a stop past the last), and the row its key comes back in.
    ahead = np.searchsorted(evictable, prev[by_prev]).tolist()
    ahead.append(len(flat) + 1)
    back_of = back[by_prev].tolist()
    evicted = [False] * len(back_of)
    late = [0] * (sectors + 2)  # undecided misses by row
    swept = done = nxt = misses = 0  # evictable positions, evictions
    # Each row with undecided keys, then the end of the rows.
    for s in np.unique(back).tolist() + [sectors + 1]:
        target = base[s] + misses
        while done < target:
            if ahead[nxt] == swept:  # an undecided q is next in line
                if back_of[nxt] >= s:  # its key has not come back yet
                    evicted[nxt] = True
                    late[back_of[nxt]] += 1
                    done += 1
                nxt += 1
            else:
                step = ahead[nxt] - swept
                if step > target - done:
                    step = target - done
                swept += step
                done += step
        misses += late[s]
    hit[undecided[by_prev[~np.array(evicted, dtype=bool)]]] = True

    first = np.arange(len(flat))  # the first copy of a key in its row
    first[seen & ~returning] = 0
    np.maximum.accumulate(first, out=first)
    hits = np.empty(len(flat), dtype=bool)
    hits[pos] = hit[first]
    return hits[m:].reshape(keys.shape), flat[evictable[swept:]]


def _halves_reused(hits: np.ndarray) -> int:
    """Rows whose two 16-byte halves each have 3 of their 4 values hit."""
    return int(np.count_nonzero(
        (hits.reshape(-1, 2, 4).sum(axis=2) >= 3).all(axis=1)
    ))


def study_trace_values(trace: Trace,
                       cache_entries: int = 512) -> Dict[str, float]:
    """Paper Fig. 8/9: three ways of counting sector-level value reuse.

    A 2 kB study cache (512 x 32-bit values, the paper's per-partition
    analysis configuration) observes every sector that carries an image,
    in trace order, read or written. A read sector counts as *reused*
    under:

    * ``full`` — all eight 32-bit values hit;
    * ``halves`` — each 16-byte half has >= 3 of its 4 values hit;
    * ``masked`` — as ``halves`` with the 4 LSBs of every value masked.

    The study cache has no pinned region, and a probe only touches keys
    that the sector's observe touches again right after. So a hit is
    membership before the sector, in plain LRU over the observe stream
    trimmed to capacity after each sector: one set of exact keys
    (``full`` and ``halves``) and one of masked keys, checked against
    ``ValueCache`` in the tests. A sector of eight equal fresh values
    scores no hit, and the same sector read again scores ``full``.

    Membership comes from reuse positions (:func:`_lru_hits`), window by
    window over the trace's image matrix; each set's resident keys carry
    over into the next window.
    """
    if cache_entries <= 0:
        raise ConfigurationError("value-reuse study needs cache entries")
    seen = full = halves = near = 0  # near: the ``masked`` scenario
    if trace.images is not None:
        reads = np.repeat(~trace.writes, SECTOR_COUNTS[trace.sector_masks])
        exact = masked = np.empty(0, dtype=np.uint32)
        for start in range(0, len(trace.images), _WINDOW_SECTORS):
            window = slice(start, start + _WINDOW_SECTORS)
            rows, read = trace.images[window], reads[window]
            present = trace.present[window]
            if not present.all():
                rows, read = rows[present], read[present]
            hits, exact = _lru_hits(rows, exact, cache_entries)
            near_hits, masked = _lru_hits(
                rows & np.uint32(_MASK_4_LSBS), masked, cache_entries
            )
            hits, near_hits = hits[read], near_hits[read]
            seen += len(hits)
            full += int(np.count_nonzero(hits.all(axis=1)))
            halves += _halves_reused(hits)
            near += _halves_reused(near_hits)
    if seen == 0:
        return {"full": 0.0, "halves": 0.0, "masked": 0.0}
    return {"full": full / seen, "halves": halves / seen,
            "masked": near / seen}
