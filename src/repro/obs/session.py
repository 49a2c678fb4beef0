"""Observability sessions and the ambient-activation protocol.

Instrumented components (caches, BMT traversals, engines, the replay
loop) do not take an observability argument — they capture the *active*
session at construction time via :func:`active`. The default active
session is a shared disabled singleton. Every write site checks
``enabled`` (or ``config.span_detail_active``) first, so a disabled
session's registry and profiler stay empty and an uninstrumented run
pays one attribute check per hook.

The harness activates a real session around a region::

    session = ObsSession(ObsConfig(enabled=True))
    with activate(session):
        result = replay_events(log, factory, config)
    write_metrics_json("m.json", session.registry)

Activation is scoped and re-entrant (the previous session is restored on
exit), which keeps concurrently constructed contexts independent.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.config import ObsConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanProfiler


class ObsSession:
    """One instrumentation scope: config, registry, profiler."""

    __slots__ = ("config", "enabled", "registry", "profiler")

    def __init__(self, config: Optional[ObsConfig] = None) -> None:
        self.config = config if config is not None else ObsConfig()
        self.enabled = self.config.enabled
        self.registry = MetricsRegistry()
        self.profiler = SpanProfiler()

    @contextmanager
    def phase(self, name: str, **attrs: object) -> Iterator[None]:
        """Open one profiler span for a pipeline phase.

        Phases are the root spans of the hotspot tree; their aggregates
        reach the metrics JSON under ``spans``. No clock is read when
        the session is disabled.
        """
        if not self.enabled:
            yield
            return
        with self.profiler.span(name, **attrs):
            yield


#: The shared everything-off session; the default active session.
DISABLED_SESSION = ObsSession()

_active: ObsSession = DISABLED_SESSION


def active() -> ObsSession:
    """The session instrumentation sites should bind to right now."""
    return _active


@contextmanager
def activate(session: ObsSession) -> Iterator[ObsSession]:
    """Make *session* the active one for the duration of the block."""
    global _active
    previous = _active
    _active = session
    try:
        yield session
    finally:
        _active = previous
