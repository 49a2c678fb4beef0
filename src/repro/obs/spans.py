"""Hierarchical span profiler.

A span is a named, nested ``with`` region. The profiler keeps two views
of every closed span:

* an **aggregate** keyed by the full path from the outermost open span
  (``("replay_events", "engine.fill", "bmt.verify")``): call count,
  cumulative wall/CPU seconds, the wall/CPU time spent in *child* spans
  (so self time is derivable without a second pass), and any counters
  attached via :meth:`SpanProfiler.add`. Aggregates are unbounded but
  tiny — one entry per distinct path, not per call.
* a **raw record** per call in a bounded ring (for the JSONL and
  Chrome ``trace_event`` exports); once the ring fills, the oldest
  records fall off and are counted in :attr:`SpanProfiler.dropped`.

The ring also holds **events**: :meth:`SpanProfiler.event` appends a
zero-duration record (a memory fill, a counter overflow) at the current
nesting path without touching the aggregates, so events never change
the hotspot tree or the collapsed stacks. Spans and events share the
ring: a run that records many events pushes its early span records
out, while the aggregates stay complete.

Wall time uses :func:`time.perf_counter`, CPU time
:func:`time.process_time`; both clocks are injectable for tests.

Spans must nest. Closing a span that is not the innermost open one
(an ``__exit__`` arriving out of order, e.g. a generator finalized
late) force-closes the intervening spans first and counts the repair in
:attr:`SpanProfiler.forced_closes`; spans still open at inspection time
are reported by :meth:`SpanProfiler.open_spans` so exports can flag
them instead of silently under-reporting.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Raw span and event records the ring retains.
RING_RECORDS = 65536


class SpanStats:
    """Aggregate over every completed call of one span path."""

    __slots__ = (
        "path", "calls", "wall_s", "cpu_s", "child_wall_s", "child_cpu_s",
        "counters",
    )

    def __init__(self, path: Tuple[str, ...]) -> None:
        self.path = path
        self.calls = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.child_wall_s = 0.0
        self.child_cpu_s = 0.0
        self.counters: Dict[str, float] = {}

    @property
    def name(self) -> str:
        return self.path[-1]

    @property
    def self_wall_s(self) -> float:
        """Wall time inside this span but outside any child span."""
        return max(0.0, self.wall_s - self.child_wall_s)

    @property
    def self_cpu_s(self) -> float:
        return max(0.0, self.cpu_s - self.child_cpu_s)

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": list(self.path),
            "calls": self.calls,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "self_wall_s": self.self_wall_s,
            "self_cpu_s": self.self_cpu_s,
            "counters": dict(sorted(self.counters.items())),
        }


class _ActiveSpan:
    """Mutable state of one currently-open span."""

    __slots__ = (
        "name", "path", "attrs", "wall_start", "cpu_start", "child_wall",
        "child_cpu", "counters",
    )

    def __init__(
        self, name: str, path: Tuple[str, ...], attrs: Dict[str, object],
        wall_start: float, cpu_start: float,
    ) -> None:
        self.name = name
        self.path = path
        self.attrs = attrs
        self.wall_start = wall_start
        self.cpu_start = cpu_start
        self.child_wall = 0.0
        self.child_cpu = 0.0
        self.counters: Dict[str, float] = {}


class _SpanContext:
    """The ``with`` handle returned by :meth:`SpanProfiler.span`."""

    __slots__ = ("_profiler", "_name", "_attrs", "_span")

    def __init__(self, profiler: "SpanProfiler", name: str, attrs) -> None:
        self._profiler = profiler
        self._name = name
        self._attrs = attrs
        self._span: Optional[_ActiveSpan] = None

    def __enter__(self) -> "_SpanContext":
        self._span = self._profiler._open(self._name, self._attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._span is not None:
            self._profiler._close(self._span)
            self._span = None


class SpanProfiler:
    """Collects nested spans into per-path aggregates plus a raw ring."""

    def __init__(
        self,
        max_records: int = RING_RECORDS,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.process_time,
    ) -> None:
        if max_records <= 0:
            raise ValueError("span profiler max_records must be positive")
        self.max_records = max_records
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._origin = clock()
        self._stack: List[_ActiveSpan] = []
        self._stats: Dict[Tuple[str, ...], SpanStats] = {}
        self._records: "deque[Dict[str, object]]" = deque(maxlen=max_records)
        self.recorded = 0
        self.forced_closes = 0

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **attrs: object) -> _SpanContext:
        """Context manager opening a nested span named *name*."""
        return _SpanContext(self, name, attrs)

    def add(self, counter: str, amount: float = 1) -> None:
        """Attach *amount* to *counter* on the innermost open span.

        A no-op outside any span, so hot-path call sites never need to
        guard on nesting depth.
        """
        if self._stack:
            counters = self._stack[-1].counters
            counters[counter] = counters.get(counter, 0) + amount

    def event(self, name: str, **attrs: object) -> None:
        """Append a zero-duration record at the current nesting path.

        Events share the raw ring with span records but never touch the
        per-path aggregates.
        """
        stack = self._stack
        record: Dict[str, object] = {
            "kind": "event",
            "path": (stack[-1].path if stack else ()) + (name,),
            "ts": self._clock() - self._origin,
            "wall_s": 0.0,
            "cpu_s": 0.0,
        }
        if attrs:
            record["args"] = attrs
        self._records.append(record)
        self.recorded += 1

    def _open(self, name: str, attrs: Dict[str, object]) -> _ActiveSpan:
        stack = self._stack
        path = (stack[-1].path if stack else ()) + (name,)
        span = _ActiveSpan(
            name, path, attrs, self._clock(), self._cpu_clock()
        )
        stack.append(span)
        return span

    def _close(self, span: _ActiveSpan) -> None:
        if span not in self._stack:
            # Already force-closed by an out-of-order outer exit.
            return
        while self._stack[-1] is not span:
            self.forced_closes += 1
            self._close_top()
        self._close_top()

    def _close_top(self) -> None:
        span = self._stack.pop()
        wall = self._clock() - span.wall_start
        cpu = self._cpu_clock() - span.cpu_start
        path = span.path

        stats = self._stats.get(path)
        if stats is None:
            stats = self._stats[path] = SpanStats(path)
        stats.calls += 1
        stats.wall_s += wall
        stats.cpu_s += cpu
        stats.child_wall_s += span.child_wall
        stats.child_cpu_s += span.child_cpu
        for key, amount in span.counters.items():
            stats.counters[key] = stats.counters.get(key, 0) + amount

        if self._stack:
            parent = self._stack[-1]
            parent.child_wall += wall
            parent.child_cpu += cpu

        record: Dict[str, object] = {
            "kind": "span",
            "path": path,
            "ts": span.wall_start - self._origin,
            "wall_s": wall,
            "cpu_s": cpu,
        }
        args: Dict[str, object] = dict(span.attrs)
        args.update(span.counters)
        if args:
            record["args"] = args
        self._records.append(record)
        self.recorded += 1

    # -- inspection --------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Raw records lost to ring overflow (aggregates keep all)."""
        return self.recorded - len(self._records)

    def open_spans(self) -> List[str]:
        """Names of spans still open, outermost first."""
        return [span.name for span in self._stack]

    def stats(self) -> Dict[Tuple[str, ...], SpanStats]:
        """The per-path aggregates (live objects; treat as read-only)."""
        return dict(self._stats)

    def records(self) -> Iterator[Dict[str, object]]:
        """Raw span and event records retained in the ring, oldest first."""
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)
