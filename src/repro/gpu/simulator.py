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
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.common.errors import SimulationError
from repro.gpu.columnar import (
    FILL_CODE,
    WRITEBACK_CODE,
    ColumnStore,
    EventColumns,
    EventKind,
    MemoryEvent,
)
from repro.gpu.config import GpuConfig
from repro.mem.cache import CacheConfig, SectoredCache
from repro.mem.traffic import Stream, TrafficCounter, TrafficReport
from repro.obs.session import active as _obs_active
from repro.secure.engine import EngineStats, PartitionEngine
from repro.workloads.trace import Trace

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

    ``events`` is the columnar store (:mod:`repro.gpu.columnar`). Build
    a log with :meth:`append_fill`/:meth:`append_writeback`, which keep
    ``fill_sectors``/``writeback_sectors`` in step with the store, and
    read it back with ``events.iter_events()`` or the numpy snapshot
    :meth:`to_columns`.
    """

    trace_name: str
    memory_intensity: float
    instructions: int
    #: Pre-window write-history depth recorded from the trace profile.
    counter_warmup_passes: int = 3
    l2_stats: L2Stats = field(default_factory=L2Stats)
    events: ColumnStore = field(default_factory=ColumnStore, init=False)
    fill_sectors: int = field(default=0, init=False)
    writeback_sectors: int = field(default=0, init=False)

    @property
    def data_bytes(self) -> int:
        return 32 * (self.fill_sectors + self.writeback_sectors)

    def append_fill(self, partition: int, sector: int,
                    values: Optional[bytes]) -> None:
        """Append one fill event and account it."""
        self.events.append(FILL_CODE, partition, sector, values)
        self.fill_sectors += 1

    def append_writeback(self, partition: int, sector: int,
                         values: Optional[bytes]) -> None:
        """Append one writeback event and account it."""
        self.events.append(WRITEBACK_CODE, partition, sector, values)
        self.writeback_sectors += 1

    def to_columns(self) -> EventColumns:
        """Numpy snapshot of the event stream (cached by the store)."""
        return self.events.to_columns()


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


def _simulate_l2(trace: Trace, config: GpuConfig) -> MemoryEventLog:
    amap = config.address_map
    l2_banks = [
        SectoredCache(
            CacheConfig(
                name=f"l2[{p}]",
                size_bytes=config.l2.size_bytes,
                line_bytes=config.l2.line_bytes,
                ways=config.l2.ways,
                sector_bytes=config.l2.sector_bytes,
                sectored=config.l2.sectored,
            )
        )
        for p in range(config.num_partitions)
    ]
    #: Values of currently dirty L2 sectors: (partition, line, slot) -> bytes.
    dirty_values: Dict[Tuple[int, int, int], Optional[bytes]] = {}
    log = MemoryEventLog(
        trace_name=trace.name,
        memory_intensity=trace.memory_intensity,
        instructions=trace.instructions,
        counter_warmup_passes=trace.counter_warmup_passes,
    )

    def emit_writebacks(partition: int, line_addr: int, dirty_mask: int) -> None:
        for slot in range(4):
            if not (dirty_mask >> slot) & 1:
                continue
            values = dirty_values.pop((partition, line_addr, slot), None)
            sector = amap.local_sector_index(line_addr + slot * 32)
            log.append_writeback(partition, sector, values)

    for access in trace:
        partition = amap.partition_of(access.line_addr)
        bank = l2_banks[partition]
        if access.write:
            # Full-sector coalesced writes allocate without fetching.
            result = bank.access(access.line_addr, access.sector_mask, write=True)
            for ev in result.evictions:
                emit_writebacks(partition, ev.line_addr, ev.dirty_mask)
            for slot in access.sectors():
                dirty_values[(partition, access.line_addr, slot)] = (
                    access.value_for(slot)
                )
        else:
            result = bank.access(access.line_addr, access.sector_mask, write=False)
            for ev in result.evictions:
                emit_writebacks(partition, ev.line_addr, ev.dirty_mask)
            for slot in access.sectors():
                if not (result.miss_mask >> slot) & 1:
                    continue
                sector = amap.local_sector_index(access.line_addr + slot * 32)
                log.append_fill(partition, sector, access.value_for(slot))

    # Kernel end: drain dirty data.
    for partition, bank in enumerate(l2_banks):
        for ev in bank.flush():
            emit_writebacks(partition, ev.line_addr, ev.dirty_mask)

    if dirty_values:
        raise SimulationError(
            f"{len(dirty_values)} dirty sector values were never drained"
        )

    for bank in l2_banks:
        log.l2_stats.accesses += bank.stats.accesses
        log.l2_stats.sector_hits += bank.stats.sector_hits
        log.l2_stats.sector_misses += bank.stats.sector_misses
    return log


def _merge_stats(per_partition: List[EngineStats]) -> EngineStats:
    merged = EngineStats()
    for stats in per_partition:
        for f in fields(EngineStats):
            setattr(merged, f.name, getattr(merged, f.name) + getattr(stats, f.name))
    return merged


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

    cols = log.to_columns()
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
        order = np.arange(cols.n_events)
    else:
        order = by_partition
    bounds = _run_bounds(partition[order], kind[order], interval)

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
        for a, b in zip(bounds, bounds[1:]):
            rows = order[a:b]
            part = int(partition[rows[0]])
            engine = engine_for(part)
            count = b - a
            if kind[rows[0]] == FILL_CODE:
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
            snapshot(cols.n_events)
            traffic = total

    merged_stats = _merge_stats([e.stats for e in engines.values()])
    if obs.enabled:
        elapsed = time.perf_counter() - start
        registry = obs.registry
        registry.gauge("replay.events").set(cols.n_events)
        if elapsed > 0:
            registry.gauge("replay.events_per_sec").set(
                cols.n_events / elapsed
            )
        for f in fields(EngineStats):
            registry.gauge(f"engine.{f.name}").set(
                getattr(merged_stats, f.name)
            )

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
