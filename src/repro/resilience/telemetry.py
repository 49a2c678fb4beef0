"""Per-unit resource telemetry for supervised campaigns.

The supervisor measures every unit's run — wall seconds, CPU seconds
and the process's peak RSS at completion — and journals the
measurements alongside the unit record (under ``"telemetry"``). This
module owns the shapes:

* :class:`UnitTelemetry` — one unit's measurements, serializable to the
  journal's JSON form;
* :func:`rollup` — campaign-level aggregation (total wall/CPU, peak
  RSS) from any iterable of telemetry dicts;
* :func:`render_campaign_telemetry` — the human-readable roll-up block
  the ``sweep`` CLI prints to **stderr** (stdout reports must stay
  byte-identical across fresh and resumed runs, and telemetry never
  is).

Telemetry is *observational*: it never feeds back into results, and a
journal without telemetry fields (older schema revisions, hand-written
fixtures) rolls up as zeros rather than failing. Unknown fields, such
as the ``retries`` counts that older journals carry, are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional


@dataclass(frozen=True)
class UnitTelemetry:
    """Resource measurements for one unit's run."""

    wall_s: float
    cpu_s: float
    #: Peak RSS of the supervisor process when the unit finished, in
    #: MiB; ``None`` where the platform cannot report it. Units run
    #: in-process, so this is a high-water mark, not an attribution.
    rss_mb: Optional[float]

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "wall_s": round(self.wall_s, 6),
            "cpu_s": round(self.cpu_s, 6),
        }
        if self.rss_mb is not None:
            payload["rss_mb"] = round(self.rss_mb, 3)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "UnitTelemetry":
        rss = payload.get("rss_mb")
        return cls(
            wall_s=float(payload.get("wall_s", 0.0)),  # type: ignore[arg-type]
            cpu_s=float(payload.get("cpu_s", 0.0)),  # type: ignore[arg-type]
            rss_mb=float(rss) if rss is not None else None,  # type: ignore[arg-type]
        )


def rollup(
    telemetries: Iterable[Optional[Dict[str, object]]],
) -> Dict[str, object]:
    """Aggregate unit telemetry dicts into one campaign summary.

    ``None`` entries (units journaled before telemetry existed, or
    skipped on resume) count toward nothing; ``units`` reports only the
    measured ones.
    """
    units = 0
    wall = 0.0
    cpu = 0.0
    peak_rss: Optional[float] = None
    for payload in telemetries:
        if not payload:
            continue
        tele = UnitTelemetry.from_dict(payload)
        units += 1
        wall += tele.wall_s
        cpu += tele.cpu_s
        if tele.rss_mb is not None:
            peak_rss = (
                tele.rss_mb if peak_rss is None else max(peak_rss, tele.rss_mb)
            )
    summary: Dict[str, object] = {
        "units": units,
        "wall_s": round(wall, 6),
        "cpu_s": round(cpu, 6),
    }
    if peak_rss is not None:
        summary["peak_rss_mb"] = round(peak_rss, 3)
    return summary


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 60:
        minutes, rest = divmod(seconds, 60.0)
        return f"{int(minutes)}m{rest:04.1f}s"
    return f"{seconds:.2f}s"


def render_campaign_telemetry(summary: Dict[str, object]) -> str:
    """Human-readable roll-up block (one campaign's measured units)."""
    units = summary.get("units", 0)
    lines = [f"telemetry: {units} measured unit(s)"]
    if units:
        wall = float(summary.get("wall_s", 0.0))  # type: ignore[arg-type]
        cpu = float(summary.get("cpu_s", 0.0))  # type: ignore[arg-type]
        lines.append(f"  wall {_fmt_seconds(wall)}, cpu {_fmt_seconds(cpu)}")
        rss = summary.get("peak_rss_mb")
        if rss is not None:
            lines.append(f"  peak rss {float(rss):.1f} MiB")  # type: ignore[arg-type]
    return "\n".join(lines)
