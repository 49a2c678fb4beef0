"""Resource budgets and the watchdogs that enforce them.

Three independent guards bound a supervised campaign:

* **wall clock** — a campaign-wide deadline, checked between units and
  between retry attempts;
* **per-unit timeout** — a SIGALRM-based preemption of one unit's
  runner (Unix main thread only; elsewhere the bound is advisory and
  documented as such);
* **memory** — peak RSS via :func:`resource.getrusage`.

Exhaustion is *graceful degradation*, not a crash: the supervisor
cancels remaining units, the report marks the missing cells, and the
CLI exits with the distinct partial code
(:data:`~repro.common.errors.EXIT_PARTIAL`).
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.common.errors import ResilienceError, UnitTimeoutError

#: Stable degradation reasons (embedded verbatim in partial reports,
#: so they must not contain run-specific numbers or timings).
REASON_WALL_CLOCK = "wall-clock budget exhausted"
REASON_RSS = "rss budget exhausted"


def _ru_maxrss_mb(peak: int) -> float:
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0  # Linux reports KiB.


def _psutil_rss_mb() -> Optional[float]:  # pragma: no cover - fallback path
    """Current RSS of this process tree via psutil, if it is installed."""
    try:
        import psutil
    except ImportError:
        return None
    try:
        proc = psutil.Process()
        total = proc.memory_info().rss
        for child in proc.children(recursive=True):
            try:
                total += child.memory_info().rss
            except psutil.Error:
                continue
    except psutil.Error:
        return None
    return total / (1024.0 * 1024.0)


def current_rss_mb() -> Optional[float]:
    """Peak resident-set size in MiB, reaped children included.

    The max of the ``RUSAGE_SELF`` peak and the ``RUSAGE_CHILDREN``
    peak, so a unit that spends its memory in a subprocess it has
    reaped is still held to ``--max-rss-mb``. Where :mod:`resource` is
    missing (non-Unix), an optional psutil fallback reports the live
    process tree instead; with neither, the guard is advisory (returns
    None).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-Unix
        return _psutil_rss_mb()
    own = _ru_maxrss_mb(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    )
    children = _ru_maxrss_mb(
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return max(own, children)


@dataclass(frozen=True)
class ResourceBudget:
    """Bounds for one supervised campaign; ``None`` disables a guard."""

    wall_clock_s: Optional[float] = None
    unit_timeout_s: Optional[float] = None
    max_rss_mb: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("wall_clock_s", "unit_timeout_s", "max_rss_mb"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ResilienceError(f"{name} must be positive, got {value}")

    @property
    def unbounded(self) -> bool:
        return (
            self.wall_clock_s is None
            and self.unit_timeout_s is None
            and self.max_rss_mb is None
        )


def _alarm_supported() -> bool:
    return (
        hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )


class BudgetGuard:
    """Live enforcement of one :class:`ResourceBudget`.

    ``clock`` is injectable so tests can drive the wall-clock deadline
    deterministically. :meth:`exceeded` returns a *stable* reason
    string (one of the ``REASON_*`` constants) or ``None``.
    """

    def __init__(
        self,
        budget: Optional[ResourceBudget] = None,
        clock: Callable[[], float] = time.monotonic,
        rss_probe: Callable[[], Optional[float]] = current_rss_mb,
    ) -> None:
        self.budget = budget if budget is not None else ResourceBudget()
        self.clock = clock
        self.rss_probe = rss_probe
        self._start: Optional[float] = None

    def start(self) -> None:
        """Arm the guard: record the deadline epoch."""
        self._start = self.clock()

    def elapsed(self) -> float:
        if self._start is None:
            return 0.0
        return self.clock() - self._start

    def exceeded(self) -> Optional[str]:
        """The first exhausted budget's stable reason, or ``None``."""
        budget = self.budget
        if (
            budget.wall_clock_s is not None
            and self._start is not None
            and self.elapsed() >= budget.wall_clock_s
        ):
            return REASON_WALL_CLOCK
        if budget.max_rss_mb is not None:
            rss = self.rss_probe()
            if rss is not None and rss >= budget.max_rss_mb:
                return REASON_RSS
        return None

    @property
    def preemptive_timeout(self) -> bool:
        """Whether the per-unit timeout can actually interrupt a unit."""
        return self.budget.unit_timeout_s is not None and _alarm_supported()

    @contextmanager
    def unit_timeout(self) -> Iterator[None]:
        """Bound one unit's runner with SIGALRM where supported.

        Raises :class:`UnitTimeoutError` inside the unit when the bound
        trips. Off the Unix main thread the context is a no-op — the
        budget degrades to advisory rather than failing the run.

        Any pre-existing handler *and* itimer are saved and restored on
        exit: a stacked (outer) guard's remaining delay keeps ticking
        minus the time this guard consumed, so nested guards compose
        instead of the inner one silently disarming the outer.
        """
        timeout = self.budget.unit_timeout_s
        if timeout is None or not _alarm_supported():
            yield
            return

        def _on_alarm(signum, frame):
            raise UnitTimeoutError(
                f"work unit exceeded its {timeout:g}s timeout",
                timeout_s=timeout,
            )

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        outer_delay, _outer_interval = signal.setitimer(
            signal.ITIMER_REAL, timeout
        )
        entered = self.clock()
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            if outer_delay > 0.0:
                # The outer timer was due at entered + outer_delay; if
                # that moment passed while we ran, fire it (almost)
                # immediately rather than dropping it. Re-armed only
                # after the outer handler is back in place.
                remaining = max(
                    1e-6, outer_delay - (self.clock() - entered)
                )
                signal.setitimer(signal.ITIMER_REAL, remaining)
