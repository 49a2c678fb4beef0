"""The bulk L2 pass against the per-access loop it replaced.

The reference below is that loop, kept here as the oracle: one
``SectoredCache.access`` per trace access, a dict of dirty sector images
keyed by (partition, line, slot), and one ``MemoryEvent`` per event with
the sector index from ``AddressMap.local_sector_index``, the list turned
into a log by ``EventColumns.from_events``. ``simulate_l2`` must produce
the same event columns (kind, partition, sector, images and presence
flags), fill/writeback counts and ``L2Stats``.
"""

from typing import Dict, Optional, Tuple

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.gpu.config import VOLTA
from repro.gpu.columnar import EventColumns
from repro.gpu.simulator import (
    EventKind,
    MemoryEvent,
    MemoryEventLog,
    simulate_l2,
)
from repro.mem.cache import CacheConfig, SectoredCache
from repro.workloads.benchmarks import BENCHMARKS, build_trace
from repro.workloads.traceio import loads_trace

LENGTHS = (7, 2000)
SEEDS = (2023, 7)


def reference_l2(trace, config):
    """The per-access L2 pass."""
    amap = config.address_map
    banks = [
        SectoredCache(CacheConfig(
            name=f"l2[{p}]",
            size_bytes=config.l2.size_bytes,
            line_bytes=config.l2.line_bytes,
            ways=config.l2.ways,
            sector_bytes=config.l2.sector_bytes,
            sectored=config.l2.sectored,
        ))
        for p in range(config.num_partitions)
    ]
    dirty_values: Dict[Tuple[int, int, int], Optional[bytes]] = {}
    events = []

    def emit_writebacks(partition, line_addr, dirty_mask):
        for slot in range(4):
            if not (dirty_mask >> slot) & 1:
                continue
            values = dirty_values.pop((partition, line_addr, slot), None)
            sector = amap.local_sector_index(line_addr + slot * 32)
            events.append(
                MemoryEvent(EventKind.WRITEBACK, partition, sector, values)
            )

    for access in trace:
        partition = amap.partition_of(access.line_addr)
        bank = banks[partition]
        result = bank.access(access.line_addr, access.sector_mask,
                             write=access.write)
        for ev in result.evictions:
            emit_writebacks(partition, ev.line_addr, ev.dirty_mask)
        if access.write:
            for slot in access.sectors():
                dirty_values[(partition, access.line_addr, slot)] = (
                    access.value_for(slot)
                )
        else:
            for slot in access.sectors():
                if not (result.miss_mask >> slot) & 1:
                    continue
                sector = amap.local_sector_index(access.line_addr + slot * 32)
                events.append(MemoryEvent(EventKind.FILL, partition, sector,
                                          access.value_for(slot)))

    for partition, bank in enumerate(banks):
        for ev in bank.flush():
            emit_writebacks(partition, ev.line_addr, ev.dirty_mask)
    if dirty_values:
        raise SimulationError("dirty sector values were never drained")
    log = MemoryEventLog(
        trace_name=trace.name,
        memory_intensity=trace.memory_intensity,
        instructions=trace.instructions,
        counter_warmup_passes=trace.counter_warmup_passes,
        events=EventColumns.from_events(events),
    )
    for bank in banks:
        log.l2_stats.accesses += bank.stats.accesses
        log.l2_stats.sector_hits += bank.stats.sector_hits
        log.l2_stats.sector_misses += bank.stats.sector_misses
    return log


def fields(log):
    """Everything a log carries, as plain comparable values."""
    cols = log.events
    return (
        tuple(column.dtype.str for column in (
            cols.kind, cols.partition, cols.sector, cols.images, cols.present
        )),
        cols.kind.tolist(),
        cols.partition.tolist(),
        cols.sector.tolist(),
        cols.images.shape,
        cols.images.tobytes(),
        cols.present.tolist(),
        log.fill_sectors,
        log.writeback_sectors,
        log.l2_stats,
        (log.trace_name, log.memory_intensity, log.instructions,
         log.counter_warmup_passes),
    )


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_bulk_pass_matches_per_access_loop(name):
    """All 20 profiles, at both lengths and seeds, with and without
    sector images."""
    for length in LENGTHS:
        for seed in SEEDS:
            for with_values in (True, False):
                trace = build_trace(name, length=length, seed=seed,
                                    with_values=with_values)
                assert fields(simulate_l2(trace, VOLTA)) == fields(
                    reference_l2(trace, VOLTA)
                ), (name, length, seed, with_values)


IMAGE = {c: bytes([c]) * 32 for c in b"ABCD"}

#: Two writes to line 0 with mask 0b0011: the first carries images for
#: both sectors, the second (``-``) for sector 0 only, so sector 1's
#: earlier image is stale. Then a read of line 0x1000.
PARTIAL_IMAGES = f"""\
#repro-trace name=partial
W 0x00000000 0b0011 {IMAGE[65].hex()} {IMAGE[66].hex()}
W 0x00000000 0b0011 {IMAGE[67].hex()} -
R 0x00001000 0b0101 {IMAGE[68].hex()} -
"""


def test_write_without_an_image_drops_the_earlier_one():
    """A sector written again without an image writes back None, not
    the image of the write before."""
    trace = loads_trace(PARTIAL_IMAGES, name="partial")
    log = simulate_l2(trace, VOLTA)
    assert fields(log) == fields(reference_l2(trace, VOLTA))
    events = list(log.events.iter_events())
    writebacks = {
        e.sector_index: e.values for e in events
        if e.kind is EventKind.WRITEBACK
    }
    assert writebacks == {0: IMAGE[67], 1: None}
    fills = [e.values for e in events if e.kind is EventKind.FILL]
    assert fills == [IMAGE[68], None]
    assert np.count_nonzero(~log.events.present) == 2
