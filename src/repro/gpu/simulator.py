"""Trace-driven GPU memory-subsystem simulator.

Two-phase design for experiment throughput:

1. :func:`simulate_l2` pushes a trace through the per-partition sectored
   L2 banks once, producing a :class:`MemoryEventLog` — the exact
   sequence of data fills and dirty writebacks each partition's memory
   controller saw, with sector values attached.
2. :func:`replay_events` runs that log through any security engine.
   Because engines sit *behind* the L2, the data-side behaviour is
   identical across designs; one L2 pass therefore serves every engine
   in a comparison, which is what makes the figure sweeps cheap.

:func:`simulate` composes both for one-shot use.

Each of the modeled GPU's 32 memory partitions has its own engine,
metadata caches, counters, and BMT, and no event ever crosses
partitions (PSSM's partition-local metadata addressing guarantees it),
so replay may regroup the merged event stream partition by partition
without changing any result (see docs/ARCHITECTURE.md § Columnar core).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.common.errors import SimulationError
from repro.gpu.columnar import (
    FILL_CODE,
    WRITEBACK_CODE,
    EventColumns,
    EventKind,
    MemoryEvent,
)
from repro.gpu.config import GpuConfig
from repro.mem.cache import CacheConfig, SectoredCache
from repro.mem.traffic import Stream, TrafficCounter, TrafficReport
from repro.obs.session import active as _obs_active
from repro.secure.engine import EngineStats, PartitionEngine
from repro.workloads.trace import MASK_SLOTS, Trace

__all__ = [
    "EventKind", "MemoryEvent", "MemoryEventLog", "L2Stats",
    "SimulationResult", "simulate_l2", "replay_events", "replay_matrix",
    "simulate", "EngineFactory",
]

#: Factory signature every engine exposes for the simulator.
EngineFactory = Callable[[int, int, TrafficCounter], PartitionEngine]


@dataclass
class L2Stats:
    """Aggregate L2 behaviour across partitions."""

    accesses: int = 0
    sector_hits: int = 0
    sector_misses: int = 0

    @property
    def sector_hit_rate(self) -> float:
        total = self.sector_hits + self.sector_misses
        return self.sector_hits / total if total else 0.0


@dataclass(eq=False)
class MemoryEventLog:
    """The DRAM-side event stream distilled from one L2 pass.

    ``events`` is the log's one form, the read-only columns of
    :class:`~repro.gpu.columnar.EventColumns`; it defaults to an empty
    log. Build one from records with ``EventColumns.from_events`` and
    read it back with ``events.iter_events()``.
    """

    trace_name: str
    memory_intensity: float
    instructions: int
    #: Pre-window write-history depth recorded from the trace profile.
    counter_warmup_passes: int = 3
    l2_stats: L2Stats = field(default_factory=L2Stats)
    events: EventColumns = field(default_factory=EventColumns.from_events)

    @property
    def fill_sectors(self) -> int:
        return int(np.count_nonzero(self.events.kind == FILL_CODE))

    @property
    def writeback_sectors(self) -> int:
        return len(self.events) - self.fill_sectors


@dataclass
class SimulationResult:
    """Traffic and engine statistics for one (trace, engine) pair."""

    engine_name: str
    trace_name: str
    memory_intensity: float
    instructions: int
    traffic: TrafficReport
    engine_stats: EngineStats
    l2_stats: L2Stats

    @property
    def total_bytes(self) -> int:
        return self.traffic.total_bytes

    @property
    def metadata_bytes(self) -> int:
        return self.traffic.metadata_bytes


def simulate_l2(trace: Trace, config: GpuConfig) -> MemoryEventLog:
    """Run the trace through the sectored L2, logging DRAM-side events."""
    obs = _obs_active()
    with obs.phase("simulate_l2", trace=trace.name):
        log = _simulate_l2(trace, config)
    if obs.enabled:
        obs.registry.gauge("l2.sector_hit_rate").set(
            log.l2_stats.sector_hit_rate
        )
        obs.registry.gauge("l2.dram_events").set(len(log.events))
    return log


#: ``[mask][subset]``: the byte offset of each slot of ``mask & subset``
#: within its line, with the slot's rank among ``mask``'s slots (its row
#: within the access's rows of the trace's image matrix).
_SLOT_ROWS = tuple(
    tuple(
        tuple(
            (slot * 32, bin(mask & ((1 << slot) - 1)).count("1"))
            for slot in MASK_SLOTS[mask & subset]
        )
        for subset in range(16)
    )
    for mask in range(16)
)


def _simulate_l2(trace: Trace, config: GpuConfig) -> MemoryEventLog:
    """The L2 pass in bulk, over the trace's columns.

    Partitions come from one :meth:`AddressMap.partitions_of` call, and
    each access is one ``access_run_raw`` call on its partition's bank.
    Dirty sectors and events carry their sector's image-matrix row.
    Events gather in plain columns, each with its sector's byte address,
    and become the log's columns once the banks are drained, with one
    :meth:`AddressMap.local_sector_indices` call for the whole column
    and one gather each from the trace's image matrix and presence
    flags.
    """
    amap = config.address_map
    bank_config = CacheConfig(
        name="l2",
        size_bytes=config.l2.size_bytes,
        line_bytes=config.l2.line_bytes,
        ways=config.l2.ways,
        sector_bytes=config.l2.sector_bytes,
        sectored=config.l2.sectored,
    )
    l2_banks = [
        SectoredCache(bank_config) for _ in range(config.num_partitions)
    ]
    #: Image row of each currently dirty L2 sector, by sector byte address.
    dirty_rows: Dict[int, int] = {}
    # The event columns: kind code, partition, sector byte address and
    # the sector's image-matrix row.
    kinds = bytearray()
    partitions: List[int] = []
    addrs: List[int] = []
    rows: List[int] = []

    def emit_writebacks(partition: int, line_addr: int, dirty_mask: int) -> None:
        for slot in MASK_SLOTS[dirty_mask & 15]:
            addr = line_addr + slot * 32
            kinds.append(WRITEBACK_CODE)
            partitions.append(partition)
            addrs.append(addr)
            rows.append(dirty_rows.pop(addr))

    access_runs = [bank.access_run_raw for bank in l2_banks]
    slot_rows = _SLOT_ROWS
    for line_addr, mask, write, partition, first in zip(
        trace.line_addrs.tolist(), trace.sector_masks.tolist(),
        trace.writes.tolist(),
        amap.partitions_of(trace.line_addrs).tolist(),
        trace.first_rows.tolist(),
    ):
        # Full-sector coalesced writes allocate without fetching.
        miss_mask, _count, evictions = access_runs[partition](
            line_addr, mask, write, 1
        )
        for ev in evictions:
            emit_writebacks(partition, ev.line_addr, ev.dirty_mask)
        if write:
            # Every written sector takes this access's row; a row with
            # no image drops the sector's earlier image.
            for offset, rank in slot_rows[mask][mask]:
                dirty_rows[line_addr + offset] = first + rank
        else:
            for offset, rank in slot_rows[mask][miss_mask & 15]:
                kinds.append(FILL_CODE)
                partitions.append(partition)
                addrs.append(line_addr + offset)
                rows.append(first + rank)

    # Kernel end: drain dirty data.
    for partition, bank in enumerate(l2_banks):
        for ev in bank.flush():
            emit_writebacks(partition, ev.line_addr, ev.dirty_mask)

    if dirty_rows:
        raise SimulationError(
            f"{len(dirty_rows)} dirty sector values were never drained"
        )

    event_rows = np.array(rows, dtype=np.int64)
    if trace.images is None:
        images = np.zeros((len(event_rows), 8), dtype="<u4")
        present = np.zeros(len(event_rows), dtype=bool)
    else:
        images = trace.images[event_rows].astype("<u4", copy=False)
        present = trace.present[event_rows]
        images[~present] = 0
    log = MemoryEventLog(
        trace_name=trace.name,
        memory_intensity=trace.memory_intensity,
        instructions=trace.instructions,
        counter_warmup_passes=trace.counter_warmup_passes,
        events=EventColumns(
            kind=np.frombuffer(bytes(kinds), dtype=np.uint8),
            partition=np.array(partitions, dtype=np.int32),
            sector=amap.local_sector_indices(
                np.array(addrs, dtype=np.int64)
            ),
            images=images,
            present=present,
        ),
    )

    for bank in l2_banks:
        log.l2_stats.accesses += bank.stats.accesses
        log.l2_stats.sector_hits += bank.stats.sector_hits
        log.l2_stats.sector_misses += bank.stats.sector_misses
    return log


#: ``EngineStats`` field names, read once, in constructor order.
_STATS_FIELDS = tuple(f.name for f in fields(EngineStats))
_stats_values = attrgetter(*_STATS_FIELDS)


def _merge_stats(per_partition: List[EngineStats]) -> EngineStats:
    """Field-by-field sums of the engines' stats."""
    return EngineStats(*[
        sum(column) for column in zip(*map(_stats_values, per_partition))
    ])


def _run_bounds(
    partition: np.ndarray, kind: np.ndarray, interval: int
) -> List[int]:
    """Where replay cuts the ordered rows into runs: ``[0, ..., n]``.

    A run never spans two partitions or two event kinds; with interval
    sampling on it also ends at every multiple of *interval*, so each
    snapshot sees exactly the events before its position.
    """
    n = int(kind.size)
    if n == 0:
        return [0]
    cuts = np.flatnonzero(
        (partition[1:] != partition[:-1]) | (kind[1:] != kind[:-1])
    ) + 1
    if interval:
        cuts = np.union1d(cuts, np.arange(interval, n, interval))
    return [0, *cuts.tolist(), n]


def replay_events(
    log: MemoryEventLog,
    engine_factory: EngineFactory,
    config: GpuConfig,
    counter_warmup_passes: "int | None" = None,
) -> SimulationResult:
    """Run a logged event stream through one security-engine design.

    ``counter_warmup_passes`` models the execution history before the
    simulated window: each pass silently replays the window's writeback
    sectors through the engines' ``warm_counters_batch`` hook, advancing
    encryption-counter state (compact-counter saturation, common-counter
    region demotion, split-counter growth) the way the billions of
    pre-window instructions would have, without contributing any
    measured traffic. Pass 0 for a cold-counter run; the default
    (``None``) takes the depth recorded in the event log, which
    benchmark profiles set to match how iterative the workload is.

    Events reach the engines as runs of consecutive same-kind events of
    one partition, through the batch hooks. Rows are taken partition by
    partition; interval sampling, memory-event tracing and span detail
    take them in the log's global order instead, so samples, ``mem.*``
    records and spans follow the trace. The result is the same either
    way: partitions share no state, traffic and ``EngineStats`` are
    sums, and an engine's result does not depend on where its runs are
    cut (docs/ARCHITECTURE.md § The batch contract).
    """
    if counter_warmup_passes is None:
        counter_warmup_passes = log.counter_warmup_passes
    if counter_warmup_passes < 0:
        raise ValueError("warmup passes cannot be negative")
    obs = _obs_active()
    interval = obs.config.interval_events if obs.enabled else 0
    mem_events = (
        obs.profiler
        if obs.enabled and obs.config.trace_memory_events
        else None
    )
    # One span per run, only under span_detail: a clock pair per run is
    # too hot for the default profile path.
    detail_prof = obs.profiler if obs.config.span_detail_active else None
    traffic = TrafficCounter()
    sectors_per_partition = config.sectors_per_partition
    engines: Dict[int, PartitionEngine] = {}

    def engine_for(partition: int) -> PartitionEngine:
        engine = engines.get(partition)
        if engine is None:
            engine = engine_factory(partition, sectors_per_partition, traffic)
            engines[partition] = engine
        return engine

    cols = log.events
    kind = cols.kind
    partition = cols.partition
    sector = cols.sector
    by_partition = np.argsort(partition, kind="stable")

    with obs.phase("replay_warmup", trace=log.trace_name,
                   passes=counter_warmup_passes):
        if counter_warmup_passes:
            writebacks = by_partition[kind[by_partition] == WRITEBACK_CODE]
            blocks = np.split(
                writebacks,
                np.flatnonzero(np.diff(partition[writebacks])) + 1,
            )
            for rows in blocks:
                if rows.size:
                    engine_for(int(partition[rows[0]])).warm_counters_batch(
                        sector[rows], counter_warmup_passes
                    )

    if interval or mem_events is not None or detail_prof is not None:
        order = np.arange(len(cols))
    else:
        order = by_partition
    bounds = _run_bounds(partition[order], kind[order], interval)
    # Each run's partition and kind, read once per replay.
    firsts = order[bounds[:-1]]
    run_partitions = partition[firsts].tolist()
    run_kinds = kind[firsts].tolist()

    snapshot = None
    total: Optional[TrafficCounter] = None
    if interval:
        # Interval mode: `traffic` holds only the current window; each
        # snapshot folds it into `total` and resets it in place, so
        # per-interval deltas cost no re-allocation and engines keep
        # writing into the same counter they were constructed with.
        total = TrafficCounter()
        registry = obs.registry
        series = {
            group: registry.sampler(f"traffic.{group}.bytes", agg="sum")
            for group in ("data", "counter", "mac", "bmt", "total")
        }
        hit_rate_series = registry.sampler("value_cache.hit_rate")
        previous = {"probes": 0, "hits": 0}

        def snapshot(position: int) -> None:
            report = traffic.report()
            series["data"].record(position, report.data_bytes)
            series["counter"].record(position, report.counter_bytes)
            series["mac"].record(position, report.mac_bytes)
            series["bmt"].record(position, report.tree_bytes)
            series["total"].record(position, report.total_bytes)
            total.merge(traffic)
            traffic.reset()
            probes = hits = 0
            for engine in engines.values():
                snap = engine.obs_snapshot()
                probes += snap.get("value_probes", 0)
                hits += snap.get("value_hits", 0)
            probes_delta = probes - previous["probes"]
            if probes_delta > 0:
                hit_rate_series.record(
                    position, (hits - previous["hits"]) / probes_delta
                )
            previous["probes"] = probes
            previous["hits"] = hits

    start = time.perf_counter() if obs.enabled else 0.0
    with obs.phase("replay_events", trace=log.trace_name):
        for a, b, part, run_kind in zip(bounds, bounds[1:], run_partitions,
                                        run_kinds):
            rows = order[a:b]
            engine = engine_for(part)
            count = b - a
            if run_kind == FILL_CODE:
                traffic.record(
                    Stream.DATA_READ, 32 * count, transactions=count
                )
                hook, name = engine.on_fill_batch, "fill"
            else:
                traffic.record(
                    Stream.DATA_WRITE, 32 * count, transactions=count
                )
                hook, name = engine.on_writeback_batch, "writeback"
            sectors = sector[rows]
            if detail_prof is None:
                hook(sectors, cols.values_for(rows))
            else:
                with detail_prof.span(f"engine.{name}"):
                    hook(sectors, cols.values_for(rows))
            if mem_events is not None:
                event = f"mem.{name}"
                for s in sectors.tolist():
                    mem_events.event(event, partition=part, sector=s)
            if interval and b % interval == 0:
                snapshot(b)

        engine_name = "no-traffic"
        for engine in engines.values():
            engine.finalize()
            engine_name = engine.name
        if interval:
            # Tail events plus finalize()'s metadata drain.
            snapshot(len(cols))
            traffic = total

    merged_stats = _merge_stats([e.stats for e in engines.values()])
    if obs.enabled:
        elapsed = time.perf_counter() - start
        registry = obs.registry
        registry.gauge("replay.events").set(len(cols))
        if elapsed > 0:
            registry.gauge("replay.events_per_sec").set(
                len(cols) / elapsed
            )
        for name in _STATS_FIELDS:
            registry.gauge(f"engine.{name}").set(getattr(merged_stats, name))

    return SimulationResult(
        engine_name=engine_name,
        trace_name=log.trace_name,
        memory_intensity=log.memory_intensity,
        instructions=log.instructions,
        traffic=traffic.report(),
        engine_stats=merged_stats,
        l2_stats=log.l2_stats,
    )


def simulate(
    trace: Trace,
    engine_factory: EngineFactory,
    config: GpuConfig,
) -> SimulationResult:
    """One-shot convenience: L2 pass plus engine replay."""
    return replay_events(simulate_l2(trace, config), engine_factory, config)


def replay_matrix(
    log: MemoryEventLog,
    factories: "Mapping[str, EngineFactory]",
    config: GpuConfig,
    counter_warmup_passes: "int | None" = None,
) -> "Dict[str, SimulationResult]":
    """Replay one event log through a whole matrix of engine designs.

    This is the stable entry point differential tooling builds on (see
    :mod:`repro.conformance`): the *same* log — and therefore the exact
    same data-side decisions — drives every named factory, so any
    divergence between the returned results is attributable to the
    engines alone. Results are keyed and ordered like *factories*;
    every replay is independent (engines never share state).
    """
    results: Dict[str, SimulationResult] = {}
    for key, factory in factories.items():
        results[key] = replay_events(
            log,
            factory,
            config,
            counter_warmup_passes=counter_warmup_passes,
        )
    return results
