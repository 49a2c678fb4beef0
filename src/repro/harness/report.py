"""Plain-text rendering of experiment results.

The harness prints the same rows/series the paper's figures plot, as
aligned ASCII tables plus simple horizontal bars for the headline series
— good enough to eyeball who wins and by what factor, with no plotting
dependency.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.harness.experiments import ExperimentResult

_BAR_WIDTH = 40

#: Density ramp for sparkline cells, lowest to highest.
_SPARK_RAMP = " .:-=+*#%@"


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != 0 and (abs(value) < 1e-3 or abs(value) >= 1e6):
            return f"{value:.3e}"
        return f"{value:.4f}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, object]]) -> str:
    """Render records as an aligned ASCII table."""
    if not rows:
        return "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    rendered = [[_format_value(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(c), *(len(r[i]) for r in rendered))
        for i, c in enumerate(columns)
    ]
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    rule = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in rendered
    )
    return "\n".join([header, rule, body])


def format_bars(series: Mapping[str, float], reference: float = 1.0) -> str:
    """Horizontal bars for a keyed series (e.g. speedup per benchmark)."""
    if not series:
        return "(no data)"
    peak = max(max(series.values()), reference, 1e-9)
    lines = []
    label_width = max(len(k) for k in series)
    for key, value in series.items():
        bar = "#" * max(1, int(round(_BAR_WIDTH * value / peak)))
        lines.append(f"{key.ljust(label_width)}  {value:7.4f}  {bar}")
    return "\n".join(lines)


def format_sparkline(
    values: Sequence[float], width: int = 56, peak: Optional[float] = None
) -> str:
    """One-line density plot of a series, bucket-averaged to *width*.

    Cells map linearly from 0..peak onto an ASCII ramp; any nonzero
    value renders at least the faintest cell so rare events stay
    visible.
    """
    if not values:
        return "(no samples)"
    if len(values) > width:
        # Average consecutive buckets so the line spans the whole series.
        buckets: List[float] = []
        step = len(values) / width
        for i in range(width):
            lo, hi = int(i * step), max(int((i + 1) * step), int(i * step) + 1)
            chunk = values[lo:hi]
            buckets.append(sum(chunk) / len(chunk))
        values = buckets
    top = peak if peak is not None else max(values)
    if top <= 0:
        return _SPARK_RAMP[0] * len(values)
    cells = []
    for v in values:
        level = int(round((len(_SPARK_RAMP) - 1) * min(v, top) / top))
        if v > 0 and level == 0:
            level = 1
        cells.append(_SPARK_RAMP[level])
    return "".join(cells)


def _format_bytes(n: float) -> str:
    for unit in ("B", "kB", "MB", "GB"):
        if abs(n) < 1024 or unit == "GB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:.1f} GB"


def render_profile(profile) -> str:
    """ASCII dashboard for one instrumented run (``profile`` subcommand).

    Renders phase timings, per-interval traffic series and value-cache
    hit rate as sparkline bars, metadata-cache hit/miss/eviction
    tables, and BMT verification-depth distributions — everything the
    end-of-run aggregates hide about *when* the engine wins or loses.
    """
    registry = profile.session.registry
    profiler = profile.session.profiler
    lines = [
        f"== profile: {profile.benchmark} / {profile.engine_key} =="
    ]

    # Phase timings (the root spans) + throughput.
    phases = [st for path, st in profiler.stats().items() if len(path) == 1]
    if phases:
        rendered = "  ".join(f"{st.name} {st.wall_s:.3f}s" for st in phases)
        lines.append(f"phases:   {rendered}")
    events = registry.get("replay.events")
    rate = registry.get("replay.events_per_sec")
    if events is not None:
        throughput = f"  ({rate.value:,.0f} events/s)" if rate else ""
        lines.append(f"replayed: {int(events.value):,} DRAM events{throughput}")

    # Traffic time series.
    traffic_rows = []
    for group in ("data", "counter", "mac", "bmt", "total"):
        sampler = registry.get(f"traffic.{group}.bytes")
        if sampler is not None and len(sampler):
            traffic_rows.append((group, sampler))
    if traffic_rows:
        lines.append("traffic over trace position (bytes per interval):")
        label_width = max(len(g) for g, _ in traffic_rows)
        for group, sampler in traffic_rows:
            values = sampler.values
            spark = format_sparkline(values)
            lines.append(
                f"  {group.ljust(label_width)}  [{spark}]  "
                f"total {_format_bytes(sum(values))}"
            )

    # Value-cache hit rate over time.
    hit_rate = registry.get("value_cache.hit_rate")
    if hit_rate is not None and len(hit_rate):
        values = hit_rate.values
        spark = format_sparkline(values, peak=1.0)
        mean = sum(values) / len(values)
        lines.append(
            f"value-cache hit rate:  [{spark}]  "
            f"mean {mean:.3f}  last {values[-1]:.3f}"
        )

    # Metadata/L2 cache behaviour.
    families = sorted(
        {
            name.split(".")[1]
            for name in registry.names()
            if name.startswith("cache.")
        }
    )
    if families:
        rows = []
        for family in families:
            hits = registry.get(f"cache.{family}.sector_hits")
            misses = registry.get(f"cache.{family}.sector_misses")
            evictions = registry.get(f"cache.{family}.line_evictions")
            h = hits.value if hits else 0
            m = misses.value if misses else 0
            rows.append(
                {
                    "cache": family,
                    "sector_hits": h,
                    "sector_misses": m,
                    "line_evictions": evictions.value if evictions else 0,
                    "hit_rate": h / (h + m) if (h + m) else 0.0,
                }
            )
        lines.append("caches:")
        lines.append(format_table(rows))

    # BMT verification depth distributions.
    for family in ("bmt", "compact_bmt"):
        hist = registry.get(f"{family}.verify_depth")
        if hist is not None and hist.count:
            buckets = " ".join(
                f"{int(b)}:{c}"
                for b, c in zip(hist.bounds, hist.counts)
                if c
            )
            lines.append(
                f"{family} verify depth: mean {hist.mean:.2f} "
                f"max {hist.max:.0f}  [{buckets}]"
            )

    # Engine counters worth a glance (nonzero gauges only).
    engine_rows = {
        name[len("engine."):]: int(inst.value)
        for name, inst in registry.items()
        if name.startswith("engine.") and inst.value
    }
    if engine_rows:
        rendered = ", ".join(f"{k}={v:,}" for k, v in sorted(engine_rows.items()))
        lines.append(f"engine:   {rendered}")

    # Span hotspots (wall-time tree of instrumented pipeline phases).
    if profiler.stats():
        from repro.obs import render_hotspots

        lines.append(render_hotspots(profiler))

    from repro.obs import sampler_compactions

    compactions = sampler_compactions(registry)
    if compactions["compactions"]:
        lines.append(
            f"samplers: {compactions['compactions']} compaction(s) across "
            f"{compactions['series']} series (resolution halved to stay "
            "within the window)"
        )
    if profile.metrics_path:
        lines.append(f"metrics json: {profile.metrics_path}")
    if profile.trace_path:
        lines.append(
            f"trace jsonl:  {profile.trace_path} "
            f"({profile.trace_events_written} lines)"
        )
    if profile.chrome_path:
        lines.append(
            f"chrome trace: {profile.chrome_path} "
            f"({profile.chrome_events_written} events)"
        )
    if profile.collapsed_path:
        lines.append(
            f"collapsed:    {profile.collapsed_path} "
            f"({profile.collapsed_stacks_written} stacks)"
        )
    return "\n".join(lines) + "\n"


def render_experiment(result: ExperimentResult) -> str:
    """Full text report for one experiment."""
    parts = [
        f"== {result.experiment_id}: {result.title} ==",
        format_table(result.rows),
    ]
    if result.summary:
        summary = ", ".join(
            f"{k}={_format_value(v)}" for k, v in result.summary.items()
        )
        parts.append(f"summary: {summary}")
    if result.paper_reference:
        reference = ", ".join(
            f"{k}={_format_value(v)}" for k, v in result.paper_reference.items()
        )
        parts.append(f"paper:   {reference}")
    if result.notes:
        parts.append(f"notes:   {result.notes}")
    return "\n".join(parts) + "\n"


def render_all(results: Dict[str, ExperimentResult]) -> str:
    """Concatenate the reports of a full experiment suite."""
    return "\n".join(render_experiment(r) for r in results.values())


def render_sweep(
    sweep: str,
    benchmark: str,
    rows: Sequence[Mapping[str, object]],
    outcome=None,
) -> str:
    """Text report for one (possibly supervised) sweep.

    Contains only the sweep identity, the completed rows, and the
    stable MISSING markers — no timings or run ids — so the text of a
    resumed run is byte-identical to an uninterrupted one.
    """
    from repro.resilience import missing_cell_lines

    lines = [f"== sweep {sweep} on {benchmark} ==", format_table(rows)]
    if outcome is not None:
        lines.extend(missing_cell_lines(outcome))
    return "\n".join(lines)
