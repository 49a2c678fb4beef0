"""Aggregation helpers for experiment results."""

from __future__ import annotations

from math import exp, log
from typing import Dict, Iterable, List, Mapping, Sequence


def arithmetic_mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def geometric_mean(values: Sequence[float]) -> float:
    """Geomean, the conventional aggregate for normalized performance."""
    if not values:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return exp(sum(log(v) for v in values) / len(values))


def percent(value: float, digits: int = 2) -> str:
    """Format a ratio delta as a signed percentage string."""
    return f"{value * 100:+.{digits}f}%"


def improvement_summary(
    per_benchmark: Mapping[str, float]
) -> Dict[str, float]:
    """Min/mean/max summary of per-benchmark speedups (ratios).

    The geomean is defined over positive values only. A value at or
    below zero (a short window where Plutus moves more metadata than
    PSSM, say) makes it ``nan``; the other fields are reported as usual.
    """
    values = list(per_benchmark.values())
    positive = all(v > 0 for v in values)
    return {
        "mean": arithmetic_mean(values),
        "geomean": geometric_mean(values) if positive else float("nan"),
        "min": min(values),
        "max": max(values),
    }


def normalize_by(
    rows: Mapping[str, float], baseline: Mapping[str, float]
) -> Dict[str, float]:
    """Element-wise ratio of two keyed series (shared keys only)."""
    out: Dict[str, float] = {}
    for key, value in rows.items():
        base = baseline.get(key)
        if base:
            out[key] = value / base
    return out


def stack_fractions(breakdown: Mapping[str, int]) -> Dict[str, float]:
    """Convert a byte breakdown into fractions that sum to one."""
    total = sum(breakdown.values())
    if total == 0:
        return {k: 0.0 for k in breakdown}
    return {k: v / total for k, v in breakdown.items()}


def transpose(
    rows: Iterable[Mapping[str, float]], key_field: str
) -> Dict[str, List[float]]:
    """Column-wise view of a list of records (for series plotting)."""
    out: Dict[str, List[float]] = {}
    for row in rows:
        for key, value in row.items():
            if key == key_field:
                continue
            out.setdefault(key, []).append(float(value))
    return out
