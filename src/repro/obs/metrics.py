"""Zero-dependency metrics registry.

Four instrument kinds cover what the secure-memory pipeline needs:

* :class:`Counter` — monotonic event counts (cache hits, MAC skips);
* :class:`Gauge` — last-value-wins scalars (engine totals, hit rates);
* :class:`Histogram` — fixed-bucket distributions (BMT verification
  depths);
* :class:`Sampler` — bounded time series over trace position (traffic
  per interval, value-cache hit rate over time). A full sampler merges
  adjacent points instead of dropping the head, so the series always
  covers the whole run.

Instruments are created get-or-create through a :class:`MetricsRegistry`
and serialize to plain JSON via ``as_dict``. They hold the values a span
cannot carry (time series, distributions, end-of-run totals); timings
live in the span profiler. Instrumentation sites check the session's
``enabled`` flag before they create or write an instrument.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

#: Points a sampler retains before it compacts.
SAMPLER_POINTS = 512


class Counter:
    """A monotonically increasing event count."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only move forward")
        self.value += amount

    def as_dict(self) -> Dict[str, object]:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A last-value-wins scalar."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def as_dict(self) -> Dict[str, object]:
        return {"type": self.kind, "value": self.value}


class Histogram:
    """Fixed-bucket histogram with an implicit overflow bucket.

    ``bounds`` are inclusive upper edges: a recorded value lands in the
    first bucket whose bound is >= the value; values above the last
    bound land in the overflow bucket (``counts[-1]``).
    """

    kind = "histogram"
    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = tuple(bounds)
        if any(b >= a for b, a in zip(ordered, ordered[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.bounds: Tuple[float, ...] = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "type": self.kind,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }


class Sampler:
    """Bounded time series keyed by a caller-supplied position.

    Points are ``(position, value)`` pairs recorded in nondecreasing
    position order (trace position, event index, ...). When the window
    fills, adjacent pairs are merged — summed for additive series
    (``agg="sum"``, e.g. bytes per interval) or averaged for rates
    (``agg="mean"``) — halving the resolution but preserving full-run
    coverage and, for sums, the series total. A point is recorded at the
    *end* of the window it covers, so a merged point takes the later
    position of its pair.
    """

    kind = "sampler"
    __slots__ = (
        "name", "window", "agg", "_positions", "_values", "recorded",
        "compactions",
    )

    def __init__(
        self, name: str, window: int = SAMPLER_POINTS, agg: str = "mean"
    ) -> None:
        if window < 8:
            raise ValueError("sampler window must be at least 8")
        if agg not in ("mean", "sum"):
            raise ValueError(f"unknown sampler aggregation {agg!r}")
        self.name = name
        self.window = window
        self.agg = agg
        self._positions: List[float] = []
        self._values: List[float] = []
        self.recorded = 0
        self.compactions = 0

    def record(self, position: float, value: float) -> None:
        self._positions.append(position)
        self._values.append(value)
        self.recorded += 1
        if len(self._values) > self.window:
            self._compact()

    def _compact(self) -> None:
        """Merge adjacent pairs; an odd trailing point is kept as-is."""
        self.compactions += 1
        positions: List[float] = []
        values: List[float] = []
        n = len(self._values)
        for i in range(0, n - 1, 2):
            positions.append(self._positions[i + 1])
            merged = self._values[i] + self._values[i + 1]
            values.append(merged / 2.0 if self.agg == "mean" else merged)
        if n % 2:
            positions.append(self._positions[-1])
            values.append(self._values[-1])
        self._positions = positions
        self._values = values

    @property
    def positions(self) -> List[float]:
        return list(self._positions)

    @property
    def values(self) -> List[float]:
        return list(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def as_dict(self) -> Dict[str, object]:
        return {
            "type": self.kind,
            "agg": self.agg,
            "window": self.window,
            "recorded": self.recorded,
            "compactions": self.compactions,
            "positions": list(self._positions),
            "values": list(self._values),
        }


class MetricsRegistry:
    """Get-or-create instrument store, serializable to plain JSON."""

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get_or_create(self, name: str, kind: type, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, bounds)
        )

    def sampler(self, name: str, agg: str = "mean") -> Sampler:
        return self._get_or_create(
            name, Sampler, lambda: Sampler(name, agg=agg)
        )

    def get(self, name: str):
        """The named instrument, or None."""
        return self._instruments.get(name)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def items(self):
        return sorted(self._instruments.items())

    def __len__(self) -> int:
        return len(self._instruments)

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        return {name: inst.as_dict() for name, inst in self.items()}
