"""Trace statistics (paper Fig. 10 and general characterization)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.workloads.trace import SECTOR_COUNTS, Trace


@dataclass(frozen=True)
class TraceStats:
    """Characterization summary of one trace."""

    name: str
    accesses: int
    read_accesses: int
    write_accesses: int
    read_sectors: int
    write_sectors: int
    touched_lines: int
    footprint_bytes: int
    memory_intensity: float

    @property
    def read_fraction(self) -> float:
        return self.read_accesses / self.accesses if self.accesses else 0.0

    @property
    def write_fraction(self) -> float:
        return 1.0 - self.read_fraction

    @property
    def read_sector_fraction(self) -> float:
        total = self.read_sectors + self.write_sectors
        return self.read_sectors / total if total else 0.0

    @property
    def avg_sectors_per_access(self) -> float:
        total = self.read_sectors + self.write_sectors
        return total / self.accesses if self.accesses else 0.0


def characterize(trace: Trace) -> TraceStats:
    """Characterization of a trace, over its columns."""
    counts = SECTOR_COUNTS[trace.sector_masks]
    write_sectors = int(counts[trace.writes].sum())
    touched_lines = trace.touched_lines
    return TraceStats(
        name=trace.name,
        accesses=len(trace),
        read_accesses=trace.read_accesses,
        write_accesses=trace.write_accesses,
        read_sectors=int(counts.sum()) - write_sectors,
        write_sectors=write_sectors,
        touched_lines=touched_lines,
        footprint_bytes=touched_lines * 128,
        memory_intensity=trace.memory_intensity,
    )


def rw_breakdown(traces: Dict[str, Trace]) -> Dict[str, Dict[str, float]]:
    """Paper Fig. 10: per-benchmark read/write request shares."""
    out: Dict[str, Dict[str, float]] = {}
    for name, trace in traces.items():
        stats = characterize(trace)
        out[name] = {
            "read": stats.read_fraction,
            "write": stats.write_fraction,
        }
    return out
