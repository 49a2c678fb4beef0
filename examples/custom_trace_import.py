#!/usr/bin/env python3
"""Scenario: evaluate Plutus on your own memory trace.

Teams with real GPU memory traces (e.g. dumped from GPGPU-Sim's memory
partitions or a binary-instrumentation tool) don't need the synthetic
workload generator: the trace I/O adapter reads a trivial text format
and the whole engine comparison runs on it unchanged.

This script writes a small demonstration trace file (a strided kernel
that reads a matrix tile and scatters updates), loads it back, and runs
the standard PSSM-vs-Plutus comparison — the workflow a user with a
real trace would follow.

Run:
    python examples/custom_trace_import.py [trace_file]
"""

import os
import sys
import tempfile

from repro.gpu.config import VOLTA
from repro.gpu.perf_model import normalized_ipc
from repro.gpu.simulator import replay_events, simulate_l2
from repro.harness.report import format_table
from repro.secure.engine import NoSecurityEngine
from repro.secure.plutus import PlutusEngine
from repro.secure.pssm import PssmEngine
from repro.workloads.traceio import dump_trace, load_trace
from repro.workloads.benchmarks import build_trace


def write_demo_trace(path: str) -> None:
    """Produce a demo trace file (stand-in for a real dump)."""
    trace = build_trace("gaussian", length=6000, seed=42)
    with open(path, "w") as fp:
        dump_trace(trace, fp)
    print(f"wrote demo trace to {path} "
          f"({len(trace)} accesses, {trace.footprint_bytes / 1e6:.1f} MB "
          "footprint)")


def evaluate(path: str) -> None:
    with open(path) as fp:
        trace = load_trace(fp)
    print(f"loaded '{trace.name}': {len(trace)} accesses, "
          f"memory intensity {trace.memory_intensity}, "
          f"warmup depth {trace.counter_warmup_passes}")

    log = simulate_l2(trace, VOLTA)
    print(f"L2 pass: {log.fill_sectors} fills, "
          f"{log.writeback_sectors} writebacks, "
          f"{log.l2_stats.sector_hit_rate:.1%} sector hit rate\n")

    engines = {
        "no-security": lambda p, s, t: NoSecurityEngine(p, s, t),
        "pssm": lambda p, s, t: PssmEngine(p, s, t),
        "plutus": lambda p, s, t: PlutusEngine(p, s, t),
    }
    results = {
        name: replay_events(log, factory, VOLTA)
        for name, factory in engines.items()
    }
    base = results["no-security"]
    print(format_table([
        {
            "engine": name,
            "total_MB": res.total_bytes / 1e6,
            "metadata_MB": res.metadata_bytes / 1e6,
            "ipc_vs_nosec": normalized_ipc(res, base),
        }
        for name, res in results.items()
    ]))
    gain = (
        normalized_ipc(results["plutus"], base)
        / normalized_ipc(results["pssm"], base) - 1
    )
    print(f"\nOn this trace, Plutus returns +{gain * 100:.1f}% over PSSM.")


def main() -> None:
    if len(sys.argv) > 1:
        evaluate(sys.argv[1])
        return
    with tempfile.NamedTemporaryFile("w", suffix=".trace",
                                     delete=False) as tmp:
        path = tmp.name
    try:
        write_demo_trace(path)
        evaluate(path)
    finally:
        os.unlink(path)


if __name__ == "__main__":
    main()
