"""Hotspot aggregation and export of span profiles.

Three views of one :class:`~repro.obs.spans.SpanProfiler`:

* :func:`render_hotspots` — an ASCII tree of cumulative/self wall time,
  CPU time and call counts, heaviest subtree first;
* :func:`collapsed_stacks` — the collapsed-stack format flamegraph
  tools consume (``outer;inner <self-microseconds>`` per line);
* :func:`chrome_trace` — Chrome's ``trace_event`` JSON (complete ``X``
  events for spans, instant ``i`` events for events, microsecond
  timestamps), loadable in ``chrome://tracing`` or Perfetto. Built from
  the raw record ring, so long runs export the *most recent* records
  and report the drop count.

All exports are derived views: they never mutate the profiler, and all
file writers are crash-atomic.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.common.atomicio import atomic_write_text
from repro.obs.spans import SpanProfiler, SpanStats

#: Version tag for the Chrome trace export's ``metadata`` block.
CHROME_TRACE_SCHEMA = "repro.spans/1"


class HotspotNode:
    """One span path in the aggregated hotspot tree."""

    __slots__ = ("stats", "children")

    def __init__(self, stats: SpanStats) -> None:
        self.stats = stats
        self.children: List["HotspotNode"] = []


def hotspot_tree(profiler: SpanProfiler) -> List[HotspotNode]:
    """Root nodes of the aggregated span tree, heaviest first.

    A child whose parent never closed (still on the stack at export
    time) is promoted: it hangs off the nearest closed ancestor, or
    becomes a root. That keeps the tree complete even for profiles
    snapshotted mid-run.
    """
    stats = profiler.stats()
    nodes: Dict[Tuple[str, ...], HotspotNode] = {
        path: HotspotNode(st) for path, st in stats.items()
    }
    roots: List[HotspotNode] = []
    for path in sorted(nodes, key=len):
        node = nodes[path]
        parent = None
        prefix = path[:-1]
        while prefix:
            parent = nodes.get(prefix)
            if parent is not None:
                break
            prefix = prefix[:-1]
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    def order(node: HotspotNode) -> float:
        return -node.stats.wall_s

    for node in nodes.values():
        node.children.sort(key=order)
    roots.sort(key=order)
    return roots


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def render_hotspots(profiler: SpanProfiler, max_depth: int = 8) -> str:
    """ASCII hotspot tree: cumulative/self wall, CPU, and call counts."""
    roots = hotspot_tree(profiler)
    lines = [
        "span hotspots (wall / self / cpu):",
        f"  {'span':<42} {'calls':>8} {'wall':>9} {'self':>9} {'cpu':>9}",
    ]
    if not roots:
        lines.append("  (no spans recorded)")

    def visit(node: HotspotNode, depth: int) -> None:
        st = node.stats
        label = ("  " * depth) + st.name
        lines.append(
            f"  {label:<42} {st.calls:>8} "
            f"{_format_seconds(st.wall_s):>9} "
            f"{_format_seconds(st.self_wall_s):>9} "
            f"{_format_seconds(st.cpu_s):>9}"
        )
        if depth + 1 < max_depth:
            for child in node.children:
                visit(child, depth + 1)

    for root in roots:
        visit(root, 0)
    open_spans = profiler.open_spans()
    if open_spans:
        lines.append(f"  (unclosed spans: {', '.join(open_spans)})")
    if profiler.forced_closes:
        lines.append(f"  (force-closed out-of-order spans: {profiler.forced_closes})")
    if profiler.dropped:
        lines.append(
            f"  (raw span ring dropped {profiler.dropped} of "
            f"{profiler.recorded} records; aggregates are complete)"
        )
    return "\n".join(lines)


def collapsed_stacks(profiler: SpanProfiler) -> List[str]:
    """Flamegraph collapsed-stack lines: ``a;b;c <self-microseconds>``.

    Uses *self* wall time so a flamegraph's column widths sum correctly;
    zero-self frames that merely contain children are omitted (the
    children carry their weight).
    """
    lines = []
    for path, st in sorted(profiler.stats().items()):
        self_us = round(st.self_wall_s * 1e6)
        if self_us > 0:
            lines.append(f"{';'.join(path)} {self_us}")
    return lines


def chrome_trace(profiler: SpanProfiler) -> Dict[str, object]:
    """Chrome ``trace_event`` JSON object for the retained ring records."""
    events: List[Dict[str, object]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 1,
            "tid": 1,
            "args": {"name": "repro"},
        }
    ]
    for record in profiler.records():
        path: Tuple[str, ...] = record["path"]  # type: ignore[assignment]
        is_span = record["kind"] == "span"
        event: Dict[str, object] = {
            "ph": "X" if is_span else "i",
            "name": path[-1],
            "cat": ";".join(path[:-1]) or "root",
            "ts": round(record["ts"] * 1e6, 3),  # type: ignore[operator]
            "pid": 1,
            "tid": 1,
        }
        if is_span:
            event["dur"] = round(record["wall_s"] * 1e6, 3)  # type: ignore[operator]
        else:
            event["s"] = "t"  # thread-scoped instant
        args = record.get("args")
        if args:
            event["args"] = args
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {
            "schema": CHROME_TRACE_SCHEMA,
            "recorded": profiler.recorded,
            "retained": len(profiler),
            "dropped": profiler.dropped,
            "forced_closes": profiler.forced_closes,
            "open_spans": profiler.open_spans(),
        },
    }


def write_collapsed(path: str, profiler: SpanProfiler) -> int:
    """Write the collapsed-stack export; returns lines written."""
    lines = collapsed_stacks(profiler)
    atomic_write_text(path, "".join(line + "\n" for line in lines))
    return len(lines)


def write_chrome_trace(path: str, profiler: SpanProfiler) -> int:
    """Write the Chrome ``trace_event`` export; returns events written."""
    payload = chrome_trace(profiler)
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return len(payload["traceEvents"])  # type: ignore[arg-type]
