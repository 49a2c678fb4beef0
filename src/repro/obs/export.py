"""Serialization of collected metrics and traces.

Two stable on-disk formats (full field reference: docs/SCHEMAS.md):

* ``metrics.json`` — one object: a schema tag, the originating
  :class:`~repro.obs.config.ObsConfig`, every registry instrument under
  ``metrics`` (keyed by dotted name), the span aggregates under
  ``spans``, a ``summary`` block exposing collection-side data loss
  (sampler compactions, span ring drops and unclosed spans), and a
  free-form ``extra`` section for caller headline numbers.
* ``events.jsonl`` — the span profiler's record ring, one span or event
  per line.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.common.atomicio import atomic_write_text
from repro.obs.config import ObsConfig
from repro.obs.metrics import MetricsRegistry, Sampler
from repro.obs.spans import SpanProfiler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.session import ObsSession

#: Version tag for the metrics JSON layout. ``/2`` added the
#: ``summary`` data-loss block and the sampler ``compactions`` field;
#: ``/3`` added the span aggregates and dropped the tracer's block
#: from ``summary``.
METRICS_SCHEMA = "repro.obs/3"


def sampler_compactions(registry: MetricsRegistry) -> Dict[str, int]:
    """Sampler data-loss roll-up: series count and total compactions."""
    samplers = [
        inst for _name, inst in registry.items() if isinstance(inst, Sampler)
    ]
    return {
        "series": len(samplers),
        "compactions": sum(s.compactions for s in samplers),
    }


def summary_block(session: Optional["ObsSession"]) -> Dict[str, object]:
    """The ``summary`` section: where collection lost or folded data.

    Everything here is *meta* — it describes the fidelity of the export
    (sampler resolution halvings, ring records lost, spans still open),
    not the measured workload.
    """
    if session is None:
        return {}
    profiler = session.profiler
    return {
        "samplers": sampler_compactions(session.registry),
        "spans": {
            "recorded": profiler.recorded,
            "retained": len(profiler),
            "dropped": profiler.dropped,
            "forced_closes": profiler.forced_closes,
            "open": profiler.open_spans(),
        },
    }


def metrics_payload(
    registry: MetricsRegistry,
    config: Optional[ObsConfig] = None,
    extra: Optional[Dict[str, object]] = None,
    session: Optional["ObsSession"] = None,
) -> Dict[str, object]:
    """The JSON-able object ``write_metrics_json`` persists."""
    return {
        "schema": METRICS_SCHEMA,
        "config": config.as_dict() if config is not None else None,
        "metrics": registry.as_dict(),
        "spans": span_aggregates(session.profiler) if session else [],
        "summary": summary_block(session),
        "extra": extra or {},
    }


def span_aggregates(profiler: SpanProfiler) -> List[Dict[str, object]]:
    """Every span path's aggregate, in path order."""
    return [st.as_dict() for _path, st in sorted(profiler.stats().items())]


def write_metrics_json(
    path: str,
    registry: MetricsRegistry,
    config: Optional[ObsConfig] = None,
    extra: Optional[Dict[str, object]] = None,
    session: Optional["ObsSession"] = None,
) -> None:
    """Dump a registry (plus headline extras) as one JSON document.

    Passing the owning *session* adds its span aggregates and the
    ``summary`` data-loss block.
    The write is crash-atomic (same-directory temp file + rename): a
    kill mid-export never leaves a torn metrics file behind.
    """
    text = json.dumps(
        metrics_payload(registry, config, extra, session),
        indent=2,
        sort_keys=True,
    )
    atomic_write_text(path, text + "\n")


def trace_lines(profiler: SpanProfiler) -> Iterator[str]:
    """One compact JSON object per retained span or event record.

    ``seq`` numbers every record the ring ever took, so a gap at the
    start reveals ring overflow. A span is recorded when it closes, so
    it follows the events and spans nested inside it.
    """
    first = profiler.recorded - len(profiler)
    for seq, record in enumerate(profiler.records(), start=first):
        path = record["path"]
        line: Dict[str, object] = {
            "seq": seq,
            "ts": round(record["ts"], 9),  # type: ignore[arg-type]
            "name": path[-1],  # type: ignore[index]
            "kind": record["kind"],
            "path": ";".join(path),  # type: ignore[arg-type]
        }
        if record["kind"] == "span":
            line["dur"] = round(record["wall_s"], 9)  # type: ignore[arg-type]
        if "args" in record:
            line["attrs"] = record["args"]
        yield json.dumps(line, separators=(",", ":"), sort_keys=True)


def write_trace_jsonl(path: str, profiler: SpanProfiler) -> int:
    """Dump the profiler's record ring as JSONL; returns lines written.

    Crash-atomic like :func:`write_metrics_json`.
    """
    lines = list(trace_lines(profiler))
    atomic_write_text(path, "".join(line + "\n" for line in lines))
    return len(lines)
