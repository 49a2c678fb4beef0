"""Observability configuration.

One frozen dataclass controls the entire instrumentation layer. The
default is *fully disabled*: every hook in the pipeline collapses to a
single attribute check that reads no clock, and simulation outputs are
byte-identical to an uninstrumented build. Enabling it (the
``profile`` harness subcommand does) turns on the metrics registry,
the span profiler with its record ring, and periodic traffic snapshots
in the replay loop.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class ObsConfig:
    """Tunables of the observability layer (default: everything off)."""

    #: Master switch. False keeps every hook a no-op.
    enabled: bool = False
    #: DRAM-side events between traffic/engine snapshots in the replay
    #: loop; 0 disables interval sampling even when enabled.
    interval_events: int = 1024
    #: Also record every individual fill/writeback as an event in the
    #: span ring (very verbose; bounded by the ring).
    trace_memory_events: bool = False
    #: Also open per-operation spans on the hot paths — engine
    #: fill/writeback runs, BMT traversals, crypto primitives. Expensive
    #: (a clock pair per operation); off by default even in profile runs.
    span_detail: bool = False

    def __post_init__(self) -> None:
        if self.interval_events < 0:
            raise ConfigurationError("interval_events cannot be negative")

    @property
    def span_detail_active(self) -> bool:
        return self.enabled and self.span_detail

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


#: Shared everything-off configuration.
DISABLED = ObsConfig()
