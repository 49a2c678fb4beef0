"""Observability layer: metrics registry, span profiler, exports.

Everything here is zero-dependency and *opt-in*: the pipeline's
instrumentation sites bind to the :func:`active` session at construction
time, and the default session is disabled — hooks reduce to a single
check, keeping figure outputs and test timings identical to an
uninstrumented build. See docs/ARCHITECTURE.md § Observability.
"""

from repro.obs.config import DISABLED, ObsConfig
from repro.obs.export import (
    METRICS_SCHEMA,
    metrics_payload,
    sampler_compactions,
    summary_block,
    write_metrics_json,
    write_trace_jsonl,
)
from repro.obs.hotspots import (
    CHROME_TRACE_SCHEMA,
    chrome_trace,
    collapsed_stacks,
    hotspot_tree,
    render_hotspots,
    write_chrome_trace,
    write_collapsed,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sampler,
)
from repro.obs.session import DISABLED_SESSION, ObsSession, activate, active
from repro.obs.spans import SpanProfiler, SpanStats

__all__ = [
    "SpanProfiler",
    "SpanStats",
    "CHROME_TRACE_SCHEMA",
    "hotspot_tree",
    "render_hotspots",
    "collapsed_stacks",
    "chrome_trace",
    "write_chrome_trace",
    "write_collapsed",
    "sampler_compactions",
    "summary_block",
    "ObsConfig",
    "DISABLED",
    "ObsSession",
    "DISABLED_SESSION",
    "active",
    "activate",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Sampler",
    "METRICS_SCHEMA",
    "metrics_payload",
    "write_metrics_json",
    "write_trace_jsonl",
]
