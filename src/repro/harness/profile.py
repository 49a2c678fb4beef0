"""The ``profile`` harness subcommand: one instrumented run.

Runs a single (benchmark, engine) simulation under an enabled
:class:`~repro.obs.ObsConfig`, then exports the collected metrics
(``--metrics-out``), the span profiler's record ring of spans and
events (``--trace-out``), and an ASCII
dashboard (:func:`repro.harness.report.render_profile`) showing traffic
and value-cache hit rate *over trace position* — the phase behaviour the
end-of-run aggregates can't show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.gpu.config import VOLTA, GpuConfig
from repro.gpu.simulator import SimulationResult
from repro.harness.runner import DEFAULT_TRACE_LENGTH, ExperimentContext
from repro.obs import (
    ObsConfig,
    ObsSession,
    write_chrome_trace,
    write_collapsed,
    write_metrics_json,
    write_trace_jsonl,
)


@dataclass
class ProfileResult:
    """One instrumented run plus its observability session."""

    benchmark: str
    engine_key: str
    result: SimulationResult
    session: ObsSession
    metrics_path: Optional[str] = None
    trace_path: Optional[str] = None
    trace_events_written: int = 0
    chrome_path: Optional[str] = None
    chrome_events_written: int = 0
    collapsed_path: Optional[str] = None
    collapsed_stacks_written: int = 0

    def headline(self) -> Dict[str, object]:
        """Summary numbers embedded in the metrics JSON ``extra`` block."""
        traffic = self.result.traffic
        return {
            "benchmark": self.benchmark,
            "engine": self.engine_key,
            "total_bytes": traffic.total_bytes,
            "data_bytes": traffic.data_bytes,
            "metadata_bytes": traffic.metadata_bytes,
            "metadata_overhead": traffic.metadata_overhead,
            "bytes_by_stream": {
                s.value: n for s, n in traffic.bytes_by_stream.items()
            },
            "transactions_by_stream": {
                s.value: n for s, n in traffic.transactions_by_stream.items()
            },
        }


def run_profile(
    benchmark: str,
    engine_key: str = "plutus",
    *,
    length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 2023,
    config: GpuConfig = VOLTA,
    obs: Optional[ObsConfig] = None,
    metrics_out: Optional[str] = None,
    trace_out: Optional[str] = None,
    chrome_out: Optional[str] = None,
    collapsed_out: Optional[str] = None,
    cache_dir: Optional[str] = None,
) -> ProfileResult:
    """Run one fully instrumented simulation and export its artifacts.

    ``chrome_out`` / ``collapsed_out`` export the span profiler as a
    Chrome ``trace_event`` JSON / a collapsed-stack (flamegraph) file.
    """
    if obs is None:
        obs = ObsConfig(enabled=True)
    elif not obs.enabled:
        raise ValueError("profiling requires an enabled ObsConfig")
    ctx = ExperimentContext(
        config=config,
        trace_length=length,
        seed=seed,
        benchmarks=[benchmark],
        obs=obs,
        cache_dir=cache_dir,
    )
    result = ctx.run(benchmark, engine_key)
    profile = ProfileResult(
        benchmark=benchmark,
        engine_key=engine_key,
        result=result,
        session=ctx.obs_session,
        metrics_path=metrics_out,
        trace_path=trace_out,
        chrome_path=chrome_out,
        collapsed_path=collapsed_out,
    )
    if metrics_out:
        write_metrics_json(
            metrics_out,
            ctx.obs_session.registry,
            config=obs,
            extra=profile.headline(),
            session=ctx.obs_session,
        )
    if trace_out:
        profile.trace_events_written = write_trace_jsonl(
            trace_out, ctx.obs_session.profiler
        )
    if chrome_out:
        profile.chrome_events_written = write_chrome_trace(
            chrome_out, ctx.obs_session.profiler
        )
    if collapsed_out:
        profile.collapsed_stacks_written = write_collapsed(
            collapsed_out, ctx.obs_session.profiler
        )
    return profile
