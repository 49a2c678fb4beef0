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
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.common.errors import SimulationError
from repro.gpu.columnar import (
    FILL_CODE,
    WRITEBACK_CODE,
    ColumnStore,
    EventColumns,
    EventKind,
    EventView,
    MemoryEvent,
)
from repro.gpu.config import GpuConfig
from repro.mem.cache import CacheConfig, SectoredCache
from repro.mem.traffic import Stream, TrafficCounter, TrafficReport
from repro.obs.session import ObsSession
from repro.obs.session import active as _obs_active
from repro.secure.engine import EngineStats, PartitionEngine
from repro.workloads.trace import Trace

__all__ = [
    "EventKind", "MemoryEvent", "MemoryEventLog", "L2Stats",
    "SimulationResult", "simulate_l2", "replay_events", "replay_matrix",
    "simulate", "EngineFactory", "REPLAY_PATHS",
]

#: Factory signature every engine exposes for the simulator.
EngineFactory = Callable[[int, int, TrafficCounter], PartitionEngine]

#: Replay execution strategies: ``auto`` picks the columnar batched
#: path unless per-event instrumentation forces the scalar loop;
#: ``object``/``columnar`` force one side (for differential checks).
REPLAY_PATHS = ("auto", "columnar", "object")


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


@dataclass
class MemoryEventLog:
    """The DRAM-side event stream distilled from one L2 pass.

    Storage is columnar (:mod:`repro.gpu.columnar`): ``events`` accepts
    a plain ``List[MemoryEvent]`` at construction for compatibility but
    always *reads* as a lazy :class:`~repro.gpu.columnar.EventView` over
    the structure-of-arrays store. ``fill_sectors``/``writeback_sectors``
    stay caller-maintained (the L2 pass and the loaders count as they
    append), exactly as with the old list field.
    """

    trace_name: str
    memory_intensity: float
    instructions: int
    #: Pre-window write-history depth recorded from the trace profile.
    counter_warmup_passes: int = 3
    events: Union[EventView, List[MemoryEvent]] = field(
        default_factory=list
    )
    fill_sectors: int = 0
    writeback_sectors: int = 0
    l2_stats: L2Stats = field(default_factory=L2Stats)

    def __post_init__(self) -> None:
        if not isinstance(self.events, EventView):
            view = EventView()
            view.extend(self.events)
            self.events = view

    @property
    def data_bytes(self) -> int:
        return 32 * (self.fill_sectors + self.writeback_sectors)

    # -- columnar access ---------------------------------------------------

    def append_fill(self, partition: int, sector: int,
                    values: Optional[bytes]) -> None:
        """Append one fill event and account it (raw-column fast path)."""
        self.events.store.append(FILL_CODE, partition, sector, values)
        self.fill_sectors += 1

    def append_writeback(self, partition: int, sector: int,
                         values: Optional[bytes]) -> None:
        """Append one writeback event and account it."""
        self.events.store.append(WRITEBACK_CODE, partition, sector, values)
        self.writeback_sectors += 1

    def to_columns(self) -> EventColumns:
        """Numpy snapshot of the event stream (cached by the store)."""
        return self.events.store.to_columns()

    @classmethod
    def from_columns(
        cls,
        cols: EventColumns,
        *,
        trace_name: str,
        memory_intensity: float,
        instructions: int,
        counter_warmup_passes: int = 3,
        l2_stats: "L2Stats | None" = None,
    ) -> "MemoryEventLog":
        """Build a log directly from a columnar snapshot.

        Fill/writeback counts are derived from the ``kind`` column, so a
        snapshot round-trip reproduces the accounting exactly.
        """
        fills = cols.fill_count
        return cls(
            trace_name=trace_name,
            memory_intensity=memory_intensity,
            instructions=instructions,
            counter_warmup_passes=counter_warmup_passes,
            events=EventView(ColumnStore.from_columns(cols)),
            fill_sectors=fills,
            writeback_sectors=cols.n_events - fills,
            l2_stats=l2_stats if l2_stats is not None else L2Stats(),
        )


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
    if obs.config.metrics_active:
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


def _columnar_serial_replay(
    log: MemoryEventLog,
    engine_for: Callable[[int], PartitionEngine],
    engines: Dict[int, PartitionEngine],
    traffic: TrafficCounter,
    counter_warmup_passes: int,
    obs: "ObsSession",
) -> str:
    """Batched serial replay over the columnar snapshot.

    Events are regrouped partition-major (in-partition order preserved),
    then dispatched to the engines as consecutive same-kind runs via the
    batch hooks — one ``traffic.record`` per run instead of one per
    event. The result is byte-identical to the scalar loop: partitions
    share no state, the traffic counter and every ``EngineStats`` field
    are commutative integer sums, and the default batch hooks replay the
    scalar calls in order for engines without native batching.

    Returns the engine design name (``"no-traffic"`` for an empty log).
    """
    cols = log.to_columns()
    kind = cols.kind
    partition = cols.partition
    blocks: List[np.ndarray] = []
    if cols.n_events:
        order = np.argsort(partition, kind="stable")
        cuts = np.flatnonzero(np.diff(partition[order])) + 1
        blocks = np.split(order, cuts)

    with obs.phase("replay_warmup", trace=log.trace_name,
                   passes=counter_warmup_passes):
        if counter_warmup_passes:
            for rows in blocks:
                writebacks = rows[kind[rows] == WRITEBACK_CODE]
                if not writebacks.size:
                    continue
                engine = engine_for(int(partition[writebacks[0]]))
                # Batch-native engines take the sector column directly
                # (and collapse the passes internally when provably
                # order-free); the scalar fallback gets plain ints.
                if engine.batch_native:
                    engine.warm_counters_batch(
                        cols.sector[writebacks], counter_warmup_passes
                    )
                else:
                    engine.warm_counters_batch(
                        cols.sector[writebacks].tolist(),
                        counter_warmup_passes,
                    )

    with obs.phase("replay_events", trace=log.trace_name):
        for rows in blocks:
            engine = engine_for(int(partition[rows[0]]))
            batch_native = engine.batch_native
            kinds = kind[rows]
            cuts = np.flatnonzero(np.diff(kinds)) + 1
            bounds = [0, *cuts.tolist(), rows.size]
            for start, end in zip(bounds, bounds[1:]):
                run = rows[start:end]
                count = end - start
                if batch_native:
                    sectors = cols.sector[run]
                else:
                    sectors = cols.sector[run].tolist()
                values = cols.values_for(run)
                if kinds[start] == FILL_CODE:
                    traffic.record(
                        Stream.DATA_READ, 32 * count, transactions=count
                    )
                    engine.on_fill_batch(sectors, values)
                else:
                    traffic.record(
                        Stream.DATA_WRITE, 32 * count, transactions=count
                    )
                    engine.on_writeback_batch(sectors, values)
        engine_name = "no-traffic"
        for engine in engines.values():
            engine.finalize()
            engine_name = engine.name
    return engine_name


def replay_events(
    log: MemoryEventLog,
    engine_factory: EngineFactory,
    config: GpuConfig,
    counter_warmup_passes: "int | None" = None,
    path: str = "auto",
) -> SimulationResult:
    """Run a logged event stream through one security-engine design.

    ``counter_warmup_passes`` models the execution history before the
    simulated window: each pass silently replays the window's writeback
    sectors through the engines' ``warm_counters`` hook, advancing
    encryption-counter state (compact-counter saturation, common-counter
    region demotion, split-counter growth) the way the billions of
    pre-window instructions would have, without contributing any
    measured traffic. Pass 0 for a cold-counter run; the default
    (``None``) takes the depth recorded in the event log, which
    benchmark profiles set to match how iterative the workload is.

    ``path`` selects the inner loop: ``"auto"`` (the default) runs the
    columnar batched pass unless per-event instrumentation (interval
    sampling, memory-event tracing, span detail) requires the scalar
    loop; ``"columnar"``/``"object"`` force one side, which is how the
    conformance invariant cross-checks them. Both produce byte-identical
    :class:`SimulationResult`\\ s.
    """
    if counter_warmup_passes is None:
        counter_warmup_passes = log.counter_warmup_passes
    if counter_warmup_passes < 0:
        raise ValueError("warmup passes cannot be negative")
    if path not in REPLAY_PATHS:
        raise ValueError(
            f"unknown replay path {path!r}; expected one of {REPLAY_PATHS}"
        )
    obs = _obs_active()
    metrics_on = obs.config.metrics_active
    interval = obs.config.interval_events if metrics_on else 0
    trace_mem = obs.config.tracing_active and obs.config.trace_memory_events
    traffic = TrafficCounter()
    sectors_per_partition = config.sectors_per_partition
    engines: Dict[int, PartitionEngine] = {}

    def engine_for(partition: int) -> PartitionEngine:
        engine = engines.get(partition)
        if engine is None:
            engine = engine_factory(partition, sectors_per_partition, traffic)
            engines[partition] = engine
        return engine

    # Per-event instrumentation (interval windows, per-event trace
    # emission, per-event spans) needs the scalar loop; everything else
    # takes the batched columnar pass.
    use_columnar = path != "object" and not (
        interval or trace_mem or obs.config.span_detail_active
    )
    if use_columnar:
        start = time.perf_counter() if obs.enabled else 0.0
        engine_name = _columnar_serial_replay(
            log, engine_for, engines, traffic, counter_warmup_passes, obs
        )
        return _finish_serial_replay(
            log, obs, traffic, engines, engine_name, start
        )

    snapshot = None
    total: Optional[TrafficCounter] = None
    if interval:
        # Interval mode: `traffic` holds only the current window; each
        # snapshot folds it into `total` and resets it in place, so
        # per-interval deltas cost no re-allocation and engines keep
        # writing into the same counter they were constructed with.
        total = TrafficCounter()
        window = obs.config.sampler_window
        registry = obs.registry
        series = {
            "data": registry.sampler(
                "traffic.data.bytes", window=window, agg="sum"
            ),
            "counter": registry.sampler(
                "traffic.counter.bytes", window=window, agg="sum"
            ),
            "mac": registry.sampler(
                "traffic.mac.bytes", window=window, agg="sum"
            ),
            "bmt": registry.sampler(
                "traffic.bmt.bytes", window=window, agg="sum"
            ),
            "total": registry.sampler(
                "traffic.total.bytes", window=window, agg="sum"
            ),
        }
        hit_rate_series = registry.sampler(
            "value_cache.hit_rate", window=window, agg="mean"
        )
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
            obs.tracer.emit(
                "traffic.interval",
                position=position,
                interval_bytes=report.total_bytes,
                metadata_bytes=report.metadata_bytes,
            )

    with obs.phase("replay_warmup", trace=log.trace_name,
                   passes=counter_warmup_passes):
        for _ in range(counter_warmup_passes):
            for event in log.events:
                if event.kind is EventKind.WRITEBACK:
                    engine_for(event.partition).warm_counters(
                        event.sector_index
                    )

    start = time.perf_counter() if obs.enabled else 0.0
    # Per-event spans only under span_detail: a clock pair per DRAM
    # event is far too hot for the default profile path.
    detail_prof = (
        obs.profiler if obs.config.span_detail_active else None
    )
    with obs.phase("replay_events", trace=log.trace_name):
        position = 0
        for event in log.events:
            engine = engine_for(event.partition)
            if event.kind is EventKind.FILL:
                traffic.record(Stream.DATA_READ, 32, transactions=1)
                if detail_prof is not None:
                    with detail_prof.span("engine.fill"):
                        engine.on_fill(event.sector_index, event.values)
                else:
                    engine.on_fill(event.sector_index, event.values)
            else:
                traffic.record(Stream.DATA_WRITE, 32, transactions=1)
                if detail_prof is not None:
                    with detail_prof.span("engine.writeback"):
                        engine.on_writeback(event.sector_index, event.values)
                else:
                    engine.on_writeback(event.sector_index, event.values)
            if trace_mem:
                obs.tracer.emit(
                    f"mem.{event.kind.value}",
                    partition=event.partition,
                    sector=event.sector_index,
                )
            position += 1
            if interval and position % interval == 0:
                snapshot(position)

        engine_name = "no-traffic"
        for engine in engines.values():
            engine.finalize()
            engine_name = engine.name
        if interval:
            # Tail events plus finalize()'s metadata drain.
            snapshot(position)
            traffic = total

    return _finish_serial_replay(
        log, obs, traffic, engines, engine_name, start
    )


def _finish_serial_replay(
    log: MemoryEventLog,
    obs: "ObsSession",
    traffic: TrafficCounter,
    engines: Dict[int, PartitionEngine],
    engine_name: str,
    start: float,
) -> SimulationResult:
    """Fold engine stats, publish gauges, and package the result."""
    merged_stats = _merge_stats([e.stats for e in engines.values()])
    if obs.enabled:
        elapsed = time.perf_counter() - start
        if obs.config.metrics_active:
            registry = obs.registry
            registry.gauge("replay.events").set(len(log.events))
            if elapsed > 0:
                registry.gauge("replay.events_per_sec").set(
                    len(log.events) / elapsed
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
    path: str = "auto",
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
            path=path,
        )
    return results
