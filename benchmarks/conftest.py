"""Shared context for the figure-reproduction benches.

All benches share one :class:`ExperimentContext`, so each trace, L2
pass and (trace, engine) simulation runs exactly once per session no
matter how many figures consume it. Trace length balances fidelity
against bench runtime; override with REPRO_BENCH_TRACE_LEN (the
EXPERIMENTS.md numbers were recorded at 30000).

At session end every memoized simulation's *per-stream* traffic is
written through the observability metrics writer (see
``repro.obs.export``) to ``BENCH_METRICS.json``, so a bench run leaves
the full traffic breakdown, not just the headline totals its
assertions check. Set REPRO_BENCH_METRICS_OUT to choose the path, or
to an empty string to disable the dump.
"""

import os

import pytest

from repro.harness.runner import ExperimentContext
from repro.obs import MetricsRegistry, write_metrics_json

BENCH_TRACE_LENGTH = int(os.environ.get("REPRO_BENCH_TRACE_LEN", "8000"))

#: Where the per-stream traffic metrics of every bench simulation land.
BENCH_METRICS_OUT = os.environ.get(
    "REPRO_BENCH_METRICS_OUT", "BENCH_METRICS.json"
)


def _dump_bench_metrics(ctx: ExperimentContext, path: str) -> None:
    """Serialize every memoized result's traffic through the registry."""
    registry = MetricsRegistry()
    for cache_key, result in sorted(ctx._results.items()):
        prefix = f"bench.{cache_key}"
        for stream, nbytes in result.traffic.bytes_by_stream.items():
            registry.counter(f"{prefix}.bytes.{stream.value}").inc(nbytes)
        for stream, count in result.traffic.transactions_by_stream.items():
            registry.counter(f"{prefix}.transactions.{stream.value}").inc(count)
        registry.gauge(f"{prefix}.metadata_overhead").set(
            result.traffic.metadata_overhead
        )
    write_metrics_json(
        path,
        registry,
        extra={
            "trace_length": ctx.trace_length,
            "seed": ctx.seed,
            "simulations": len(ctx._results),
        },
    )


@pytest.fixture(scope="session")
def ctx():
    context = ExperimentContext(trace_length=BENCH_TRACE_LENGTH)
    yield context
    if BENCH_METRICS_OUT and context._results:
        _dump_bench_metrics(context, BENCH_METRICS_OUT)


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
