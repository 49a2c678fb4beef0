"""Experiment execution context with caching.

All figure reproductions share the same expensive artifacts: benchmark
traces, their L2 event logs (one pass per trace regardless of how many
engines are compared), and per-engine simulation results. The
:class:`ExperimentContext` memoizes traces and logs twice — in memory
for the lifetime of one context, and content-hashed on disk (see
:mod:`repro.harness.diskcache`) so repeated sweeps across processes
skip trace generation and ``simulate_l2`` entirely. Replay results stay
in-memory only: they are cheap relative to the L2 pass and depend on
the engine design under study.

Engine design points are addressed by *keys* (e.g. ``"plutus"``,
``"pssm"``, ``"plutus:gran32"``) so experiments stay declarative and
results cache across figures. Every named factory is an
:class:`EngineSpec`, a (class, kwargs) pair.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Type

from repro.gpu.config import VOLTA, GpuConfig
from repro.gpu.simulator import (
    EngineFactory,
    MemoryEventLog,
    SimulationResult,
    replay_events,
    simulate_l2,
)
from repro.harness.diskcache import DiskCache, content_digest
from repro.mem.traffic import TrafficCounter
from repro.metadata.compact import (
    DESIGN_2BIT,
    DESIGN_3BIT,
    DESIGN_3BIT_ADAPTIVE,
)
from repro.metadata.layout import GranularityDesign
from repro.obs import ObsConfig, ObsSession, activate
from repro.secure.common_counters import CommonCountersEngine
from repro.secure.engine import NoSecurityEngine, PartitionEngine
from repro.secure.plutus import PlutusEngine
from repro.secure.pssm import PssmEngine
from repro.secure.recoverable import RecoverableEngine
from repro.secure.value_cache import ValueCacheConfig
from repro.workloads.benchmarks import benchmark_names, build_trace
from repro.workloads.trace import Trace

#: Default trace length; override with the REPRO_TRACE_LEN environment
#: variable (tests use small values, full runs larger ones).
DEFAULT_TRACE_LENGTH = int(os.environ.get("REPRO_TRACE_LEN", "30000"))


class EngineSpec:
    """An engine factory as data: a design class plus constructor kwargs.

    Calling a spec builds one partition's engine exactly like a closure
    would; unlike a closure, a spec exposes its design class
    (``engine_cls``) and prints as the design point it names.
    """

    __slots__ = ("engine_cls", "kwargs")

    def __init__(self, engine_cls: Type[PartitionEngine], **kwargs) -> None:
        self.engine_cls = engine_cls
        self.kwargs = kwargs

    def __call__(
        self,
        partition_id: int,
        data_sectors: int,
        traffic: TrafficCounter,
    ) -> PartitionEngine:
        return self.engine_cls(
            partition_id, data_sectors, traffic, **self.kwargs
        )

    def __repr__(self) -> str:
        kwargs = ", ".join(
            f"{k}={v!r}" for k, v in sorted(self.kwargs.items())
        )
        suffix = f", {kwargs}" if kwargs else ""
        return f"EngineSpec({self.engine_cls.__name__}{suffix})"


def engine_factories() -> Dict[str, EngineFactory]:
    """The named design points every experiment draws from."""

    def plutus_variant(**kwargs) -> EngineSpec:
        return EngineSpec(PlutusEngine, **kwargs)

    factories: Dict[str, EngineFactory] = {
        "nosec": EngineSpec(NoSecurityEngine),
        "pssm": EngineSpec(PssmEngine),
        "pssm:4B-mac": EngineSpec(PssmEngine, mac_tag_bytes=4),
        "common-counters": EngineSpec(CommonCountersEngine),
        "plutus": plutus_variant(),
        # Fig. 15: value verification alone on the PSSM organization.
        "plutus:value-only": plutus_variant(
            design=GranularityDesign.BLOCK_128, compact_config=None
        ),
        # Fig. 16: the three granularity designs, nothing else enabled.
        "gran:128B": plutus_variant(
            design=GranularityDesign.BLOCK_128,
            value_cache_config=None,
            compact_config=None,
        ),
        "gran:32B-leaf": plutus_variant(
            design=GranularityDesign.LEAF_32_TREE_128,
            value_cache_config=None,
            compact_config=None,
        ),
        "gran:32B-all": plutus_variant(
            design=GranularityDesign.ALL_32,
            value_cache_config=None,
            compact_config=None,
        ),
        # Fig. 17: the three compact-counter designs on PSSM granularity.
        "compact:2bit": plutus_variant(
            design=GranularityDesign.BLOCK_128,
            value_cache_config=None,
            compact_config=DESIGN_2BIT,
        ),
        "compact:3bit": plutus_variant(
            design=GranularityDesign.BLOCK_128,
            value_cache_config=None,
            compact_config=DESIGN_3BIT,
        ),
        "compact:adaptive": plutus_variant(
            design=GranularityDesign.BLOCK_128,
            value_cache_config=None,
            compact_config=DESIGN_3BIT_ADAPTIVE,
        ),
        # Fig. 20: integrity-tree traffic eliminated (MGX/TNPU-style).
        "plutus:no-tree": plutus_variant(eliminate_tree=True),
        "pssm:no-tree": plutus_variant(
            design=GranularityDesign.BLOCK_128,
            value_cache_config=None,
            compact_config=None,
            eliminate_tree=True,
        ),
        # Ablations.
        "pssm:eager": EngineSpec(PssmEngine, lazy_update=False),
        # Crash-recoverable variant: PSSM traffic plus the persisted
        # metadata-log stream (see repro.secure.recoverable).
        "recoverable": EngineSpec(RecoverableEngine),
    }
    for entries in (64, 128, 256, 512, 1024):
        factories[f"plutus:vcache-{entries}"] = plutus_variant(
            value_cache_config=ValueCacheConfig(entries=entries)
        )
    for fraction in (0.0, 0.125, 0.25, 0.5):
        factories[f"plutus:pinned-{fraction}"] = plutus_variant(
            value_cache_config=ValueCacheConfig(pinned_fraction=fraction)
        )
    return factories


#: Backwards-compatible alias for the pre-observability private name.
_engine_factories = engine_factories


@dataclass
class ExperimentContext:
    """Caching runner shared by every experiment.

    When an enabled :class:`~repro.obs.ObsConfig` is supplied, every
    trace build, L2 pass, and engine replay executed through the context
    runs under one :class:`~repro.obs.ObsSession`, whose registry and
    span profiler accumulate across runs (the ``profile`` subcommand
    drives a single run and exports them). The default config is
    disabled and changes nothing.

    ``cache_dir`` names the disk-cache root (``None`` = resolve from
    ``REPRO_CACHE_DIR``, default ``.cache``; empty string disables disk
    caching).
    """

    config: GpuConfig = VOLTA
    trace_length: int = DEFAULT_TRACE_LENGTH
    seed: int = 2023
    benchmarks: List[str] = field(default_factory=benchmark_names)
    obs: ObsConfig = field(default_factory=ObsConfig)
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        self._traces: Dict[str, Trace] = {}
        self._logs: Dict[str, MemoryEventLog] = {}
        self._results: Dict[str, SimulationResult] = {}
        self.factories = engine_factories()
        self.obs_session = ObsSession(self.obs)
        self.disk_cache = DiskCache.from_spec(self.cache_dir)

    def fingerprint(self) -> str:
        """Content hash of everything that shapes this context's results.

        The cache location is deliberately excluded: it changes *how*
        results are computed, never *what* they are, so a journaled run
        may resume under a different cache root (or worker count) and
        still merge byte-identically.
        """
        return content_digest(
            "experiment-context",
            repr(self.config),
            str(self.trace_length),
            str(self.seed),
            ",".join(self.benchmarks),
        )

    def trace(self, benchmark: str) -> Trace:
        if benchmark not in self._traces:
            trace = None
            key = None
            if self.disk_cache is not None:
                key = DiskCache.trace_key(
                    benchmark, self.trace_length, self.seed
                )
                trace = self.disk_cache.load_trace(key)
            if trace is None:
                with self.obs_session.phase("build_trace", benchmark=benchmark):
                    trace = build_trace(
                        benchmark, length=self.trace_length, seed=self.seed
                    )
                if self.disk_cache is not None and key is not None:
                    self.disk_cache.store_trace(key, trace)
            else:
                # A disk-cache hit skips trace generation; emit the phase
                # (near-zero, tagged cached) so metrics stay complete.
                with self.obs_session.phase(
                    "build_trace", benchmark=benchmark, cached=True
                ):
                    pass
            self._traces[benchmark] = trace
        return self._traces[benchmark]

    def event_log(self, benchmark: str) -> MemoryEventLog:
        if benchmark not in self._logs:
            trace = self.trace(benchmark)
            log = None
            key = None
            if self.disk_cache is not None:
                key = DiskCache.event_log_key(trace, self.config)
                log = self.disk_cache.load_event_log(key)
            if log is None:
                with activate(self.obs_session):
                    log = simulate_l2(trace, self.config)
                if self.disk_cache is not None and key is not None:
                    self.disk_cache.store_event_log(key, log)
            else:
                # A cache hit skips simulate_l2, so restore the phase span
                # and gauges the live pass would have set for the profile
                # dashboard.
                with self.obs_session.phase(
                    "simulate_l2", trace=trace.name, cached=True
                ):
                    pass
                if self.obs.enabled:
                    registry = self.obs_session.registry
                    registry.gauge("l2.sector_hit_rate").set(
                        log.l2_stats.sector_hit_rate
                    )
                    registry.gauge("l2.dram_events").set(len(log.events))
            self._logs[benchmark] = log
        return self._logs[benchmark]

    def run(self, benchmark: str, engine_key: str) -> SimulationResult:
        """Simulate one (benchmark, engine) pair, memoized."""
        cache_key = f"{benchmark}|{engine_key}"
        if cache_key not in self._results:
            factory = self.factories.get(engine_key)
            if factory is None:
                raise KeyError(
                    f"unknown engine {engine_key!r}; known: "
                    f"{sorted(self.factories)}"
                )
            log = self.event_log(benchmark)
            with activate(self.obs_session):
                self._results[cache_key] = replay_events(
                    log, factory, self.config
                )
        return self._results[cache_key]

    def run_custom(
        self,
        benchmark: str,
        key: str,
        factory: EngineFactory,
    ) -> SimulationResult:
        """Simulate with an ad-hoc engine factory, memoized under *key*."""
        cache_key = f"{benchmark}|{key}"
        if cache_key not in self._results:
            log = self.event_log(benchmark)
            with activate(self.obs_session):
                self._results[cache_key] = replay_events(
                    log, factory, self.config
                )
        return self._results[cache_key]
