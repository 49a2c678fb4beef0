"""The stamp-LRU value-reuse study: the reference the study is checked
against.

This is the per-value form of fig09's study that ``study_trace_values``
replaced: one ``OrderedDict`` walk per value. It stays here, out of
``src/``, as the differential the reuse-position study must match count
for count.
"""

from collections import OrderedDict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.workloads.trace import SECTOR_COUNTS

#: Clears a 32-bit value's 4 LSBs: the ``masked`` scenario's key.
MASK_4_LSBS = 0xFFFFFFF0
#: A read sector's hit bits (one per value, the first value highest)
#: -> whether each 16-byte half has at least 3 of its 4 values hit.
_HALVES_REUSED = [
    bin(bits >> 4).count("1") >= 3 and bin(bits & 15).count("1") >= 3
    for bits in range(256)
]


class ValueReuseStudy:
    """Paper Fig. 8/9: three ways of counting sector-level value reuse.

    A 2 kB study cache (512 x 32-bit values) observes every accessed
    sector. A sector counts as *reused* under:

    * ``full`` — all eight 32-bit values hit;
    * ``halves`` — each 16-byte half has >= 3 of its 4 values hit;
    * ``masked`` — as ``halves`` with the 4 LSBs of every value masked.

    Each resident key maps to a stamp: the number of the sector that
    inserted it, counting every sector, read or written. One lookup per
    key then decides both the hit and the update. A key present with an
    earlier sector's stamp was resident before this sector and hits; a
    key absent, or present with this sector's own stamp (inserted by an
    earlier value of the same sector), misses. A present key moves to
    the MRU end and keeps its stamp; an absent one is inserted with this
    sector's. Each set is trimmed to capacity once per sector, which
    leaves what evicting per insert would.
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
        #: Every observed sector's hit bits (the first value highest), of
        #: the exact and of the masked set.
        self.hit_bits: List[int] = []
        self.masked_hit_bits: List[int] = []

    def observe_chunk(self, exact_rows: Sequence[Sequence[int]],
                      masked_rows: Sequence[Sequence[int]],
                      reads: Sequence[bool]) -> None:
        """Observe consecutive sectors, given by their eight 32-bit values,
        the values' masked keys and whether each sector is a read. A read
        is checked for reuse before its keys go in; every sector's keys
        go in."""
        exact, masked = self._exact, self._masked
        capacity = self._capacity
        stamp = self._stamp
        seen = full = halves = near = 0  # near: the ``masked`` scenario
        for exact_keys, masked_keys, is_read in zip(exact_rows, masked_rows,
                                                    reads):
            stamp += 1
            hits = 0
            for key in exact_keys:
                inserted = exact.get(key)
                hits <<= 1
                if inserted is None:
                    exact[key] = stamp
                else:
                    exact.move_to_end(key)
                    if inserted != stamp:
                        hits += 1
            masked_hits = 0
            for key in masked_keys:
                inserted = masked.get(key)
                masked_hits <<= 1
                if inserted is None:
                    masked[key] = stamp
                else:
                    masked.move_to_end(key)
                    if inserted != stamp:
                        masked_hits += 1
            self.hit_bits.append(hits)
            self.masked_hit_bits.append(masked_hits)
            if is_read:
                seen += 1
                if hits == 255:  # all eight values hit
                    full += 1
                if _HALVES_REUSED[hits]:
                    halves += 1
                if _HALVES_REUSED[masked_hits]:
                    near += 1
            while len(exact) > capacity:
                exact.popitem(last=False)
            while len(masked) > capacity:
                masked.popitem(last=False)
        self._stamp = stamp
        self.sectors_seen += seen
        self.reused["full"] += full
        self.reused["halves"] += halves
        self.reused["masked"] += near

    def resident(self) -> Tuple[List[int], List[int]]:
        """The exact and the masked set's keys, least recent first."""
        return list(self._exact), list(self._masked)

    def report(self) -> Dict[str, float]:
        """Each scenario's reused share of the read sectors."""
        seen = self.sectors_seen
        return {s: self.reused[s] / seen if seen else 0.0
                for s in self.SCENARIOS}


def reference_study(trace, cache_entries=512) -> ValueReuseStudy:
    """The reference study run over a trace's images, in trace order,
    skipping the rows that carry no image."""
    study = ValueReuseStudy(cache_entries=cache_entries)
    if trace.images is not None:
        reads = np.repeat(~trace.writes, SECTOR_COUNTS[trace.sector_masks])
        images = trace.images[trace.present]
        reads = reads[trace.present]
        study.observe_chunk(
            images.tolist(), (images & np.uint32(MASK_4_LSBS)).tolist(),
            reads.tolist(),
        )
    return study
