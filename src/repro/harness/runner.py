"""Experiment execution context with caching.

All figure reproductions share the same expensive artifacts: benchmark
traces, their L2 event logs (one pass per trace regardless of how many
engines are compared), and per-engine simulation results. The
:class:`ExperimentContext` memoizes all three in memory for the
lifetime of one context: each benchmark's trace is built, and its L2
pass run, once per context.

Replay is most of a replay experiment's CPU, so the context shares it
across design points. A ``PssmEngine`` or ``PlutusEngine`` design point
has two sides that share no state: its counter side and its value/MAC
side (:data:`~repro.secure.engine.VALUE_MAC_STREAMS`). Each side is
keyed by the constructor arguments it reads, and each (log, side key)
is replayed at most once per context:

* neither side memoized: the design point replays whole, as any other
  engine does, and memoizes its value/MAC side, plus its counter side
  when its tree is on;
* one side memoized: only the other side replays, through its
  side-only driver with the tree on;
* both memoized: nothing replays.

The result is then composed from the two sides, with the tree streams
zeroed when the design point eliminates its tree. Aliases
(``plutus:vcache-256`` is ``plutus``, ``gran:128B`` is ``pssm``) cost
nothing, and each ablation pays for the one side it changes.

Engine design points are addressed by *keys* (e.g. ``"plutus"``,
``"pssm"``, ``"plutus:gran32"``) so experiments stay declarative and
results cache across figures. Every named factory is an
:class:`EngineSpec`, a (class, kwargs) pair.
"""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Tuple, Type

from repro.common.digest import content_digest
from repro.common.errors import UnknownEngineError
from repro.gpu.config import VOLTA, GpuConfig
from repro.gpu.simulator import (
    EngineFactory,
    MemoryEventLog,
    SimulationResult,
    replay_events,
    simulate_l2,
)
from repro.mem.traffic import (
    TREE_STREAMS,
    Stream,
    TrafficCounter,
    TrafficReport,
)
from repro.metadata.compact import (
    DESIGN_2BIT,
    DESIGN_3BIT,
    DESIGN_3BIT_ADAPTIVE,
)
from repro.metadata.layout import GranularityDesign
from repro.obs import ObsConfig, ObsSession, activate
from repro.secure.common_counters import CommonCountersEngine
from repro.secure.engine import (
    VALUE_MAC_STATS,
    VALUE_MAC_STREAMS,
    EngineStats,
    NoSecurityEngine,
    PartitionEngine,
)
from repro.secure.plutus import (
    PlutusCounterSide,
    PlutusEngine,
    PlutusValueMacSide,
)
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


def _side_keys(factory: EngineFactory) -> Optional[Tuple[tuple, tuple, bool]]:
    """``(counter key, value/MAC key, tree on)`` of a split design point.

    Each key is the sorted constructor arguments of its side-only
    driver, class defaults filled in; the counter side reads every
    argument but the value-cache config and ``eliminate_tree``. ``None``
    for every factory but an exact ``PssmEngine`` or ``PlutusEngine``
    spec: subclasses such as ``RecoverableEngine`` add streams of their
    own, so they replay whole.
    """
    if not isinstance(factory, EngineSpec) or factory.engine_cls not in (
        PssmEngine, PlutusEngine
    ):
        return None
    params = inspect.signature(factory.engine_cls).parameters.values()
    args = {p.name: p.default for p in params if p.default is not p.empty}
    args.update(factory.kwargs)
    args.setdefault("compact_config", None)  # PSSM has no compact layer
    tree = not args.pop("eliminate_tree", False)
    value_mac = {
        "value_cache_config": args.pop("value_cache_config", None),
        "mac_tag_bytes": args["mac_tag_bytes"],
        "cache_config": args["cache_config"],
    }
    return tuple(sorted(args.items())), tuple(sorted(value_mac.items())), tree


def _compose(
    counter: SimulationResult,
    value_mac: SimulationResult,
    engine_name: str,
    tree: bool,
) -> SimulationResult:
    """One design point's result from the replays of its two sides."""
    streams = [s for s in Stream if tree or s not in TREE_STREAMS]
    sides = {
        s: (value_mac if s in VALUE_MAC_STREAMS else counter).traffic
        for s in streams
    }
    stats = {
        f.name: getattr(
            (value_mac if f.name in VALUE_MAC_STATS else counter).engine_stats,
            f.name,
        )
        for f in fields(EngineStats)
    }
    return replace(
        counter,
        engine_name=engine_name,
        # Streams left out (a dropped tree's) read 0.
        traffic=TrafficReport(
            {s: sides[s].bytes_by_stream[s] for s in streams},
            {s: sides[s].transactions_for(s) for s in streams},
        ),
        engine_stats=EngineStats(**stats),
    )


@dataclass
class ExperimentContext:
    """Caching runner shared by every experiment.

    When an enabled :class:`~repro.obs.ObsConfig` is supplied, every
    trace build, L2 pass, and engine replay executed through the context
    runs under one :class:`~repro.obs.ObsSession`, whose registry and
    span profiler accumulate across runs (the ``profile`` subcommand
    drives a single run and exports them). The default config is
    disabled and changes nothing.
    """

    config: GpuConfig = VOLTA
    trace_length: int = DEFAULT_TRACE_LENGTH
    seed: int = 2023
    benchmarks: List[str] = field(default_factory=benchmark_names)
    obs: ObsConfig = field(default_factory=ObsConfig)
    #: Ignored: ``perfbench/rep.py`` still passes ``cache_dir=""``, from
    #: when a context had a disk cache (ROADMAP item 11 removes both).
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        self._traces: Dict[str, Trace] = {}
        self._logs: Dict[str, MemoryEventLog] = {}
        self._results: Dict[str, SimulationResult] = {}
        #: ``(benchmark, side driver, side key)`` -> the replay whose
        #: fields that side owns.
        self._sides: Dict[tuple, SimulationResult] = {}
        self.factories = engine_factories()
        self.obs_session = ObsSession(self.obs)

    def fingerprint(self) -> str:
        """Content hash of everything that shapes this context's results."""
        return content_digest(
            "experiment-context",
            repr(self.config),
            str(self.trace_length),
            str(self.seed),
            ",".join(self.benchmarks),
        )

    def trace(self, benchmark: str) -> Trace:
        if benchmark not in self._traces:
            with self.obs_session.phase("build_trace", benchmark=benchmark):
                self._traces[benchmark] = build_trace(
                    benchmark, length=self.trace_length, seed=self.seed
                )
        return self._traces[benchmark]

    def event_log(self, benchmark: str) -> MemoryEventLog:
        if benchmark not in self._logs:
            trace = self.trace(benchmark)
            with activate(self.obs_session):
                self._logs[benchmark] = simulate_l2(trace, self.config)
        return self._logs[benchmark]

    def run(self, benchmark: str, engine_key: str) -> SimulationResult:
        """Simulate one (benchmark, engine) pair, memoized.

        A ``PssmEngine`` or ``PlutusEngine`` design point replays only
        the sides no earlier run on this benchmark has (module
        docstring); every other engine replays whole.
        """
        cache_key = f"{benchmark}|{engine_key}"
        if cache_key not in self._results:
            factory = self.factories.get(engine_key)
            if factory is None:
                raise UnknownEngineError(
                    f"unknown engine {engine_key!r}; known: "
                    f"{sorted(self.factories)}"
                )
            log = self.event_log(benchmark)
            with activate(self.obs_session):
                self._results[cache_key] = self._replay(
                    benchmark, log, factory
                )
        return self._results[cache_key]

    def _replay(
        self, benchmark: str, log: MemoryEventLog, factory: EngineFactory
    ) -> SimulationResult:
        keys = _side_keys(factory)
        if keys is None:
            return replay_events(log, factory, self.config)
        counter_args, value_mac_args, tree = keys
        counter_key = (benchmark, PlutusCounterSide, counter_args)
        value_mac_key = (benchmark, PlutusValueMacSide, value_mac_args)
        counter = self._sides.get(counter_key)
        value_mac = self._sides.get(value_mac_key)
        if counter is None and value_mac is None:
            result = replay_events(log, factory, self.config)
            self._sides[value_mac_key] = result
            if tree:
                self._sides[counter_key] = result
            return result
        if counter is None:
            counter = self._sides[counter_key] = replay_events(
                log, EngineSpec(PlutusCounterSide, **dict(counter_args)),
                self.config,
            )
        if value_mac is None:
            value_mac = self._sides[value_mac_key] = replay_events(
                log, EngineSpec(PlutusValueMacSide, **dict(value_mac_args)),
                self.config,
            )
        return _compose(counter, value_mac, factory.engine_cls.name, tree)

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
